"""Label and field selectors, as used by list/watch, services, and affinity."""

from collections.abc import Hashable

from .base import Field, Serializable


class LabelSelectorRequirement(Serializable):
    """A single matchExpressions entry (In/NotIn/Exists/DoesNotExist)."""

    FIELDS = (
        Field("key"),
        Field("operator"),
        Field("values", container="list", default_factory=list),
    )

    def matches(self, labels):
        value = labels.get(self.key)
        if self.operator == "In":
            return value is not None and value in self.values
        if self.operator == "NotIn":
            return value is None or value not in self.values
        if self.operator == "Exists":
            return self.key in labels
        if self.operator == "DoesNotExist":
            return self.key not in labels
        raise ValueError(f"unknown selector operator {self.operator!r}")


class LabelSelector(Serializable):
    """Kubernetes LabelSelector: AND of matchLabels and matchExpressions."""

    FIELDS = (
        Field("match_labels", container="map", default_factory=dict),
        Field("match_expressions", type=LabelSelectorRequirement,
              container="list", default_factory=list),
    )

    def matches(self, labels):
        labels = labels or {}
        for key, expected in self.match_labels.items():
            if labels.get(key) != expected:
                return False
        for requirement in self.match_expressions:
            if not requirement.matches(labels):
                return False
        return True

    @property
    def empty(self):
        return not self.match_labels and not self.match_expressions


def parse_selector(text):
    """Parse a simple ``k=v,k2=v2,k3!=v3,k4`` label selector string."""
    selector = LabelSelector()
    if not text:
        return selector
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "!=" in part:
            key, value = part.split("!=", 1)
            selector.match_expressions.append(
                LabelSelectorRequirement(key=key.strip(), operator="NotIn",
                                         values=[value.strip()])
            )
        elif "=" in part:
            key, value = part.split("=", 1)
            selector.match_labels[key.strip()] = value.strip()
        else:
            selector.match_expressions.append(
                LabelSelectorRequirement(key=part, operator="Exists")
            )
    return selector


def match_label_dict(selector_labels, labels):
    """Plain-dict selector matching (e.g. Service.spec.selector)."""
    if not selector_labels:
        return False
    labels = labels or {}
    return all(labels.get(k) == v for k, v in selector_labels.items())


def get_field(obj_dict, path):
    """Resolve a dotted field path (e.g. ``spec.nodeName``) in a wire dict."""
    current = obj_dict
    for part in path.split("."):
        if not isinstance(current, dict) or part not in current:
            return None
        current = current[part]
    return current


def match_fields(field_selector, obj_dict):
    """Match a ``{path: value}`` field selector against a wire dict.

    A ``path!`` key (trailing bang) negates the match, mirroring the
    ``path!=value`` syntax of kubectl.
    """
    for path, expected in (field_selector or {}).items():
        if path.endswith("!"):
            actual = get_field(obj_dict, path[:-1])
            if actual == expected:
                return False
        else:
            actual = get_field(obj_dict, path)
            if actual != expected:
                return False
    return True


def equality_hint(field_selector):
    """One ``(path, value)`` equality every match of the selector must
    satisfy, or None — what a store may index a watch by."""
    for path, expected in (field_selector or {}).items():
        if not path.endswith("!") and isinstance(expected, Hashable):
            return path, expected
    return None
