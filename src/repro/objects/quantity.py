"""Kubernetes resource quantities ("500m" CPU, "1Gi" memory).

Quantities are stored exactly as integers in milli-units, which covers both
millicore CPU values and byte-denominated memory values without floating
point drift.  Arithmetic and comparisons are supported so schedulers and
quota admission can sum requests against node allocatable.
"""

import functools
import re

_BINARY_SUFFIXES = {
    "Ki": 1024,
    "Mi": 1024 ** 2,
    "Gi": 1024 ** 3,
    "Ti": 1024 ** 4,
    "Pi": 1024 ** 5,
}
_DECIMAL_SUFFIXES = {
    "m": None,  # handled specially: milli
    "k": 10 ** 3,
    "M": 10 ** 6,
    "G": 10 ** 9,
    "T": 10 ** 12,
    "P": 10 ** 15,
}

_QUANTITY_RE = re.compile(r"^([+-]?\d+(?:\.\d+)?)([A-Za-z]{0,2})$")


class InvalidQuantity(ValueError):
    """The string is not a valid Kubernetes quantity."""


def _parse_milli(text):
    """The milli-unit amount a quantity string denotes."""
    match = _QUANTITY_RE.match(str(text).strip())
    if not match:
        raise InvalidQuantity(f"invalid quantity: {text!r}")
    number, suffix = match.groups()
    value = float(number) if "." in number else int(number)
    if suffix == "":
        return round(value * 1000)
    if suffix == "m":
        return round(value)
    if suffix in _BINARY_SUFFIXES:
        return round(value * _BINARY_SUFFIXES[suffix] * 1000)
    if suffix in _DECIMAL_SUFFIXES:
        return round(value * _DECIMAL_SUFFIXES[suffix] * 1000)
    raise InvalidQuantity(f"unknown suffix {suffix!r} in {text!r}")


class Quantity:
    """An exact resource amount, e.g. ``Quantity.parse("250m")``.

    A value: ``milli`` is never reassigned after construction, so
    :meth:`parse` hands a ``Quantity`` argument back as is,
    :meth:`from_serialized` hands out one instance per distinct wire
    string, and resource lists may share instances.
    """

    __slots__ = ("milli",)

    def __init__(self, milli):
        self.milli = int(milli)

    @classmethod
    def parse(cls, text):
        """Parse a quantity string such as ``"2"``, ``"500m"``, ``"1Gi"``."""
        if isinstance(text, Quantity):
            return text
        if isinstance(text, (int, float)):
            return cls(round(text * 1000))
        return cls(_parse_milli(text))

    @classmethod
    def zero(cls):
        return cls(0)

    def to_serialized(self):
        return str(self)

    @classmethod
    def from_serialized(cls, raw):
        """Decode a wire value: one shared instance per distinct string."""
        if isinstance(raw, str):
            return _interned(raw)
        return cls.parse(raw)

    # ------------------------------------------------------------------
    # Arithmetic / comparison
    # ------------------------------------------------------------------

    def __add__(self, other):
        return Quantity(self.milli + Quantity.parse(other).milli)

    def __sub__(self, other):
        return Quantity(self.milli - Quantity.parse(other).milli)

    def __mul__(self, factor):
        return Quantity(round(self.milli * factor))

    def __neg__(self):
        return Quantity(-self.milli)

    def __eq__(self, other):
        try:
            return self.milli == Quantity.parse(other).milli
        except (InvalidQuantity, TypeError):
            return NotImplemented

    def __lt__(self, other):
        return self.milli < Quantity.parse(other).milli

    def __le__(self, other):
        return self.milli <= Quantity.parse(other).milli

    def __gt__(self, other):
        return self.milli > Quantity.parse(other).milli

    def __ge__(self, other):
        return self.milli >= Quantity.parse(other).milli

    def __hash__(self):
        return hash(self.milli)

    def __bool__(self):
        return self.milli != 0

    def __str__(self):
        """Canonical-ish rendering: prefer whole base units, else milli."""
        if self.milli % 1000 == 0:
            whole = self.milli // 1000
            for suffix, factor in (("Gi", 1024 ** 3), ("Mi", 1024 ** 2),
                                   ("Ki", 1024)):
                if whole and whole % factor == 0:
                    return f"{whole // factor}{suffix}"
            return str(whole)
        return f"{self.milli}m"

    def __repr__(self):
        return f"Quantity({str(self)!r})"


@functools.lru_cache(maxsize=4096)
def _interned(text):
    # Sharing is safe: a Quantity is a value (see its docstring).
    return Quantity(_parse_milli(text))


def add_resource_lists(a, b):
    """Merge two ``{resource_name: Quantity}`` dicts by addition."""
    out = {name: Quantity.parse(q) for name, q in a.items()}
    for name, quantity in b.items():
        if name in out:
            out[name] = out[name] + quantity
        else:
            out[name] = Quantity.parse(quantity)
    return out


def fits_within(request, available):
    """True when every requested resource fits within ``available``."""
    for name, quantity in request.items():
        limit = available.get(name)
        if limit is None:
            return False
        if Quantity.parse(quantity) > Quantity.parse(limit):
            return False
    return True
