"""Field tables: each field of a declarative spec is declared once.

A spec class lists its fields as rows in ``fields``.  A row
(:class:`Field`) gives the field's name, its type, its default (or
:data:`REQUIRED`) and its bounds or choices.  :class:`Spec` reads the
table and provides ``__init__``, ``from_dict``, ``to_dict``,
``validate``, ``__eq__`` and ``__repr__``.  A subclass adds only the
rules that involve more than one field, in :meth:`Spec.check`.

The scenario model (``repro.scenarios.model``), its traffic shapes
(``repro.scenarios.shapes``) and the parameters of each schedulable
fault (``repro.chaos.faults.FAULTS``) are all such tables.  The module
lives in ``repro.chaos``, the lower of the two packages, because
``repro.scenarios`` imports ``repro.chaos``.

Load rules, the same for every table:

- unknown keys are named, a required key must be present, and a key
  whose value is null takes its default, which must pass the row's
  checks like any written value;
- numbers must be finite, and a bool is not a number;
- an integer field rejects ``2.7`` instead of truncating it, and a bool
  field takes only ``true``/``false`` (a quoted ``"no"`` is truthy in
  Python);
- bounds and choices apply on load and again in ``validate()``, so a
  spec built in Python is held to the same rules;
- every error names its YAML path (``tenants[0].workloads[1].shape.rate``)
  and the offending value.

``to_dict()`` omits every field equal to its default, so
``from_dict(to_dict(s)) == s``.
"""

import math
import re

#: The default of a field that has none: the key must be given.
REQUIRED = object()

# Field types.
INT = "int"
NUMBER = "number"
BOOL = "bool"
STR = "str"
#: A DNS label: lowercase alphanumerics and '-', alphanumeric at both ends.
NAME = "name"
#: One of the row's ``choices``.
CHOICE = "choice"
#: A nested spec (the row's ``spec`` class), loaded from a mapping.
SPEC = "spec"
#: A list of nested specs.
SPECS = "specs"
STRS = "strs"
MAPPING = "mapping"
#: Two numbers ``[lo, hi]``.
PAIR = "pair"

_NAME_RE = re.compile(r"[a-z0-9]([a-z0-9-]*[a-z0-9])?")


class ScenarioError(ValueError):
    """A scenario file or model failed validation.

    Messages are written to be actionable: they name the YAML path that
    failed (``tenants[1].workloads[0].shape``), the offending value,
    and what would be accepted instead.
    """


def _finite(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _strings(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


#: Type → (what the error says was expected, the test a value must pass).
_TYPES = {
    INT: ("an integer",
          lambda v: isinstance(v, int) and not isinstance(v, bool)),
    NUMBER: ("a finite number", _finite),
    BOOL: ("true or false", lambda v: isinstance(v, bool)),
    STR: ("a string", lambda v: isinstance(v, str)),
    NAME: ("a valid name (lowercase alphanumerics and '-', starting and "
           "ending alphanumeric)",
           lambda v: isinstance(v, str) and _NAME_RE.fullmatch(v)),
    SPECS: ("a list", lambda v: isinstance(v, list)),
    STRS: ("a list of strings", _strings),
    MAPPING: ("a mapping", lambda v: isinstance(v, dict)),
    PAIR: ("two numbers [lo, hi]",
           lambda v: isinstance(v, list) and len(v) == 2
           and all(map(_finite, v))),
}

#: How ``__init__`` converts a value it is handed: ``horizon=40`` becomes
#: 40.0.  Scalars convert only in fields with a non-null default, so an
#: optional ``at: 5`` keeps the type it was written with.
_SCALARS = {INT: int, NUMBER: float, BOOL: bool}
_CONTAINERS = {SPECS: list, STRS: list, PAIR: list, MAPPING: dict}

_BOUNDS = (("ge", ">=", lambda v, b: v >= b), ("gt", ">", lambda v, b: v > b),
           ("le", "<=", lambda v, b: v <= b), ("lt", "<", lambda v, b: v < b))


def _at(where):
    return f"{where}: " if where else ""


def _join(where, name):
    return f"{where}.{name}" if where else name


class Field:
    """One row of a field table.

    ``default`` is a value, :data:`REQUIRED`, or, for a :data:`SPEC`
    row, the spec class itself (a fresh instance with its own defaults).
    A null default makes the field optional: null is then a legal value.
    ``ge``/``gt``/``le``/``lt`` bound a number, or the length of a list.
    ``hint`` is appended to the row's errors.
    """

    __slots__ = ("name", "kind", "default", "spec", "choices", "pattern",
                 "hint", "ge", "gt", "le", "lt")

    def __init__(self, name, kind, default=REQUIRED, *, spec=None,
                 choices=None, pattern=None, hint=None, ge=None, gt=None,
                 le=None, lt=None):
        self.name = name
        self.kind = kind
        self.default = default
        self.spec = spec
        self.choices = tuple(choices) if choices is not None else None
        self.pattern = re.compile(pattern) if pattern else None
        self.hint = hint
        self.ge, self.gt, self.le, self.lt = ge, gt, le, lt

    def initial(self):
        """The value of an absent field (a fresh one for containers)."""
        default = self.default
        return self.coerce(default() if callable(default) else default)

    def coerce(self, value):
        if value is None:
            return None
        if self.kind in _CONTAINERS:
            return _CONTAINERS[self.kind](value)
        if self.kind in _SCALARS and self.default is not None:
            return _SCALARS[self.kind](value)
        return value

    def _fail(self, where, message):
        hint = f" — {self.hint}" if self.hint else ""
        raise ScenarioError(f"{where}: {message}{hint}")

    def check(self, value, where):
        """Raise :class:`ScenarioError` unless ``value`` has this row's
        type and lies in its bounds; nested specs are validated too."""
        self._check(value, where)
        if self.kind == SPEC and value is not None:
            value.validate(where)
        elif self.kind == SPECS:
            for index, item in enumerate(value):
                item.validate(f"{where}[{index}]")

    def _check(self, value, where):
        """:meth:`check` without descending into nested specs."""
        if value is None and self.default is None:
            return
        if self.kind == SPEC:
            if not isinstance(value, self.spec):
                self._fail(where, f"expected a {self.spec.__name__}, got "
                                  f"{value!r}")
            return
        if self.kind == CHOICE:
            if value not in self.choices:
                self._fail(where, f"{value!r} is not one of: "
                                  f"{', '.join(map(str, self.choices))}")
            return
        expected, test = _TYPES[self.kind]
        if not test(value):
            self._fail(where, f"expected {expected}, got {value!r}")
        if self.pattern is not None and not self.pattern.fullmatch(value):
            self._fail(where, f"{value!r} is malformed")
        if self.kind == SPECS:
            for index, item in enumerate(value):
                if not isinstance(item, self.spec):
                    self._fail(f"{where}[{index}]", f"expected a "
                               f"{self.spec.__name__}, got {item!r}")
        sized = isinstance(value, list)
        measure = len(value) if sized else value
        for key, symbol, holds in _BOUNDS:
            bound = getattr(self, key)
            if bound is not None and not holds(measure, bound):
                got = f"{measure} entries" if sized else repr(value)
                self._fail(where, f"must be {symbol} {bound}, got {got}")

    def load(self, value, where):
        """A YAML value → the checked field value.  Nested specs are
        built (and so checked) by their own ``from_dict``."""
        if self.kind == SPEC:
            return self.spec.from_dict(value, where)
        if self.kind == SPECS and isinstance(value, list):
            value = [self.spec.from_dict(item, f"{where}[{index}]")
                     for index, item in enumerate(value)]
        self._check(value, where)
        return self.coerce(value)

    def dump(self, value):
        if self.kind == SPEC and value is not None:
            return value.to_dict()
        if self.kind == SPECS:
            return [item.to_dict() for item in value]
        return self.coerce(value)


def load(fields, data, where):
    """Check the mapping ``data`` against a field table.

    Returns ``{name: value}`` for every row, absent and null keys at
    their default.  Raises :class:`ScenarioError` on an unknown key, a
    missing required key, or a value its row rejects; a default is held
    to its row like a written value (an absent ``tenants`` is an empty
    list, which ``ge=1`` rejects).
    """
    if not isinstance(data, dict):
        raise ScenarioError(f"{_at(where)}expected a mapping, got {data!r}")
    names = [row.name for row in fields]
    unknown = [key for key in data if key not in names]
    if unknown:
        raise ScenarioError(
            f"{_at(where)}unknown key(s) {', '.join(map(repr, unknown))} "
            f"(valid keys: {', '.join(sorted(names)) or 'none'})")
    values = {}
    for row in fields:
        value = data.get(row.name)
        if value is not None:
            value = row.load(value, _join(where, row.name))
        elif row.default is REQUIRED:
            raise ScenarioError(
                f"{_at(where)}missing a required key {row.name!r}")
        else:
            value = row.initial()
            row.check(value, _join(where, row.name))
        values[row.name] = value
    return values


class Spec:
    """A record whose fields are the rows of ``fields``.

    ``__init__`` takes the fields positionally in table order or by
    name, converts as :meth:`Field.coerce` says, and gives an omitted or
    null field its default.
    """

    fields = ()

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self.fields):
            raise TypeError(f"{name}() takes at most {len(self.fields)} "
                            f"positional arguments")
        for row, value in zip(self.fields, args):
            if row.name in kwargs:
                raise TypeError(f"{name}() got multiple values for "
                                f"{row.name!r}")
            kwargs[row.name] = value
        for row in self.fields:
            if row.default is REQUIRED and row.name not in kwargs:
                raise TypeError(f"{name}() missing required argument "
                                f"{row.name!r}")
            value = kwargs.pop(row.name, None)
            if value is None and row.default is not REQUIRED:
                value = row.initial()
            else:
                value = row.coerce(value)
            setattr(self, row.name, value)
        if kwargs:
            raise TypeError(f"{name}() got unexpected argument(s) "
                            f"{', '.join(map(repr, kwargs))}")

    def check(self, where):
        """The rules that involve more than one field (none here)."""

    def validate(self, where=""):
        """Check every field, nested specs included, then :meth:`check`.
        Returns ``self``."""
        for row in self.fields:
            row.check(getattr(self, row.name), _join(where, row.name))
        self.check(where)
        return self

    @classmethod
    def from_dict(cls, data, where):
        """Load and check a mapping: each row as it is read, nested
        specs by their own ``from_dict``, then :meth:`check`."""
        spec = cls(**load(cls.fields, data, where))
        spec.check(where)
        return spec

    def to_dict(self):
        out = {}
        for row in self.fields:
            value = getattr(self, row.name)
            if row.default is REQUIRED or value != row.initial():
                out[row.name] = row.dump(value)
        return out

    def __eq__(self, other):
        return (type(other) is type(self)
                and all(getattr(self, row.name) == getattr(other, row.name)
                        for row in self.fields))

    def __repr__(self):
        params = ", ".join(f"{row.name}={getattr(self, row.name)!r}"
                           for row in self.fields)
        return f"{type(self).__name__}({params})"
