"""Declarative serialization base for Kubernetes-style API objects.

Every API type declares its fields once via :class:`Field`; the base class
derives the instance layout, the constructor behaviour,
``to_dict``/``from_dict`` (using the Kubernetes camelCase wire names),
deep copy (``copy``), shallow copy-on-write (``replace``) and structural
equality.  The wire format is JSON-shaped dicts: what the write-ahead
log, the replay digest and a raw store read carry.

Object plane contract (DESIGN.md "Object plane"): a written value is
immutable and shared, not copied.  The store keeps each revision as the
typed object the apiserver wrote, and readers share it: it is a
*snapshot*, which readers must not mutate, and writers derive their own
object from it with ``replace`` (new shell, untouched children shared)
or ``copy`` (fully private).  :func:`freeze` is the guard for that rule
— see :func:`set_freeze_guard`.  Because snapshots never change,
successive revisions of one object share the children that did not
change between them.  The serde is the one place where wire dicts and
typed objects meet, so it guarantees that they never alias each other:
``from_dict`` copies untyped dict/list payloads out of the wire dict and
``to_dict`` copies them into it.  Wire dicts are made only where bytes
leave the model (a log record, a replay digest); the Fig. 10 memory
meter counts ``len(str(to_dict()))`` with ``wire_chars`` instead, and
spec comparisons compare typed values (:func:`fields_equal`).

Objects are lean because the informer caches hold one per object per
revision: every type is slotted (``__slots__`` derived from its own
``FIELDS``, so no instance carries a ``__dict__``), and ``from_dict``
gives every absent collection whose default is an empty list or dict
one shared, always-immutable empty (:data:`EMPTY_LIST`,
:data:`EMPTY_DICT`) instead of a fresh container per decode.  Objects
built with the constructor or ``copy()`` get fresh mutable containers.

Serde is the kernel's hottest path (profiling the Fig. 10 stress run
puts ``from_dict``/``to_dict`` and their helpers at ~45% of total
interpreter time), so ``__init_subclass__`` compiles a specialized
``__init__``/``to_dict``/``from_dict``/``replace`` per type — the field
loop, container dispatch, and default handling are resolved at
class-creation time, the way :mod:`dataclasses` builds ``__init__`` —
and ``copy`` and ``wire_chars`` the first time a type's method is
looked up.  The generated methods are the only serde: a subclass
declares ``FIELDS`` and never writes them by hand.
"""

from .quantity import Quantity


class Field:
    """One serializable field of an API type.

    Parameters
    ----------
    py_name:
        Attribute name on the Python object (snake_case).
    json_name:
        Wire name (camelCase).  Defaults to ``py_name`` converted to
        camelCase.
    type:
        Optional nested :class:`Serializable` subclass for object fields
        (or the element type for lists / the value type for maps).
    container:
        ``None`` for scalars/objects, ``"list"`` or ``"map"`` for
        collections.
    default:
        Immutable default value.
    default_factory:
        Callable producing a default (for mutable defaults).
    """

    __slots__ = ("py_name", "json_name", "type", "container", "default",
                 "default_factory")

    def __init__(self, py_name, json_name=None, type=None, container=None,
                 default=None, default_factory=None):
        self.py_name = py_name
        self.json_name = json_name or _to_camel(py_name)
        self.type = type
        self.container = container
        self.default = default
        self.default_factory = default_factory


def _to_camel(snake):
    head, *rest = snake.split("_")
    return head + "".join(part.capitalize() for part in rest)


class _Slotted(type):
    """Metaclass deriving ``__slots__`` from a class's own ``FIELDS``.

    Inherited fields live in the base classes' slots, so no instance of
    an API type has a ``__dict__``.
    """

    def __new__(mcls, name, bases, namespace, **kwargs):
        if "__slots__" not in namespace:
            namespace["__slots__"] = tuple(
                field.py_name for field in namespace.get("FIELDS", ()))
        return super().__new__(mcls, name, bases, namespace, **kwargs)


class Serializable(metaclass=_Slotted):
    """Base class implementing serde over a ``FIELDS`` declaration.

    Every subclass gets six generated methods (see
    :class:`_SerdeCodegen`): ``__init__(**kwargs)`` filling undeclared
    fields with their defaults, ``to_dict()`` producing the camelCase
    wire representation, the classmethod ``from_dict(data)`` reading
    it back (unknown keys ignored, ``None`` passed through, absent
    empty-default collections shared immutable empties),
    ``wire_chars()`` — ``len(str(to_dict()))`` without the dict,
    memoized — and ``copy()`` — a fully private, mutable deep copy —
    both compiled at their first lookup, and ``replace(**fields)`` — a
    new object of the same type holding the given field values and, for
    every other field, *the same* value object as ``self``.  ``replace``
    is a shallow shell, not a deep copy: it is how a writer changes one
    field of a shared snapshot (``pod.replace(status=new_status)``)
    without touching it.

    The two slots declared here are the freeze marker, set only by
    :func:`freeze` under the guard, and the ``wire_chars`` memo, which
    neither ``replace`` nor ``copy`` carries over.
    """

    __slots__ = ("_frozen", "_chars")
    FIELDS = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        gen = _SerdeCodegen(cls)
        fields = tuple(cls._field_index().values())
        cls.__init__ = gen.gen_init(fields)
        cls.to_dict = gen.gen_to_dict(fields)
        cls.from_dict = classmethod(gen.gen_from_dict(fields))
        cls.replace = gen.gen_replace(fields)
        # Set on every class, so that none inherits its base's methods.
        cls.copy = _COPY_ON_FIRST_USE
        cls.wire_chars = _WIRE_CHARS_ON_FIRST_USE

    @classmethod
    def _wire_header(cls):
        """Constant ``(key, value)`` pairs prepended to ``to_dict`` output.

        Must be constant per *class* (it is evaluated once at
        class-creation time by the serde codegen).
        """
        return ()

    @classmethod
    def _field_index(cls):
        cached = cls.__dict__.get("_FIELD_INDEX")
        if cached is None:
            cached = {}
            for klass in reversed(cls.__mro__):
                for field in klass.__dict__.get("FIELDS", ()):
                    cached[field.py_name] = field
            cls._FIELD_INDEX = cached
        return cached

    @classmethod
    def _wire_index(cls):
        """Wire name -> :class:`Field`."""
        cached = cls.__dict__.get("_WIRE_INDEX")
        if cached is None:
            cached = {field.json_name: field
                      for field in cls._field_index().values()}
            cls._WIRE_INDEX = cached
        return cached

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        name = getattr(getattr(self, "metadata", None), "name", None)
        if name is not None:
            return f"<{type(self).__name__} {name!r}>"
        return f"<{type(self).__name__} {self.to_dict()!r}>"


class _CompileOnFirstUse:
    """A class's generated ``name`` method until it is first looked up:
    the lookup compiles the class's own method with ``build`` and
    installs it in place of this stand-in, so importing the API types
    pays nothing for the many that a process never copies or rewrites."""

    def __init__(self, name, build):
        self.name = name
        self.build = build

    def __get__(self, obj, owner):
        fields = tuple(owner._field_index().values())
        method = self.build(_SerdeCodegen(owner), fields)
        setattr(owner, self.name, method)
        return method.__get__(obj, owner)


_COPY_ON_FIRST_USE = _CompileOnFirstUse(
    "copy", lambda gen, fields: gen.gen_copy(fields))
_WIRE_CHARS_ON_FIRST_USE = _CompileOnFirstUse(
    "wire_chars", lambda gen, fields: gen.gen_wire_chars(fields))


def fast_deep_copy(value):
    """Deep copy of a JSON-shaped value (dicts/lists/scalars).

    Much faster than :func:`copy.deepcopy` for wire dicts, which is what
    the store and the codecs shuffle around constantly.
    """
    if isinstance(value, dict):
        return {key: fast_deep_copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [fast_deep_copy(item) for item in value]
    return value


def _dump(value):
    if isinstance(value, Serializable):
        return value.to_dict()
    if isinstance(value, _CONTAINER_TYPES):
        # Untyped payloads are copied so a wire dict never aliases the
        # object it was dumped from (and frozen containers thaw).
        return fast_deep_copy(value)
    if hasattr(value, "to_serialized"):
        return value.to_serialized()
    return value


# ---------------------------------------------------------------------------
# The freeze guard
# ---------------------------------------------------------------------------

_CONTAINER_TYPES = (dict, list)
_FROZEN = "_frozen"     # the marker slot, set on a frozen node
_guard_on = False


class FrozenError(TypeError):
    """A shared snapshot (or a stored wire value) was mutated."""


def set_freeze_guard(enabled):
    """Switch the aliasing guard on or off; returns the previous state.

    A process-local debug toggle — on in the test suite and in
    ``python -m repro.scenarios verify``, off everywhere else.  While it
    is on, :func:`freeze` really freezes, so mutating a shared value
    raises :class:`FrozenError` at the mutation site instead of silently
    corrupting every other holder.  While it is off, :func:`freeze`
    returns its argument untouched and attribute stores pay nothing.
    Nothing may branch on whether a value is frozen: the guard adds
    exceptions, never a second code path.
    """
    global _guard_on
    previous = _guard_on
    _guard_on = bool(enabled)
    if _guard_on:
        Serializable.__setattr__ = _guarded_setattr
        Serializable.__delattr__ = _guarded_delattr
    elif previous:
        del Serializable.__setattr__
        del Serializable.__delattr__
    return previous


def freeze_guard_on():
    """Whether the guard is on.  The meter's cross-check runs only then,
    and only ever raises :class:`SerdeMismatch`."""
    return _guard_on


class SerdeMismatch(AssertionError):
    """A serde shortcut disagreed with the full serde."""


def check_decoded_shape(obj):
    """Under the guard, raise :class:`SerdeMismatch` unless ``obj`` is,
    type for type, what decoding its encoding gives — no ``None`` over
    a default, no dict standing in for a typed child.  A create stores
    the caller's object as the snapshot readers get, where a decode
    used to give them that normal form."""
    if _guard_on and _shape(obj) != _shape(type(obj).from_dict(
            obj.to_dict())):
        raise SerdeMismatch(f"{obj!r} is not what its encoding decodes to")


def _shape(value):
    """The type of every node and leaf reachable from ``value``, a
    frozen container counted as the plain one it stands for."""
    kind = {FrozenList: list, FrozenDict: dict}.get(type(value),
                                                    type(value))
    if isinstance(value, Serializable):
        return kind, tuple(_shape(getattr(value, name))
                           for name in type(value)._field_index())
    if isinstance(value, dict):
        return kind, tuple((key, _shape(item)) for key, item in value.items())
    if isinstance(value, list):
        return kind, tuple(_shape(item) for item in value)
    return kind


def freeze(value):
    """Mark ``value`` immutable, in depth, when the guard is on.

    A :class:`Serializable` is frozen in place (its lists and dicts are
    swapped for raising subclasses, nested objects frozen too) and
    returned; a JSON-shaped dict/list is returned as a frozen *copy*,
    since a plain container cannot be frozen in place.  Already-frozen
    parts are shared, not walked again.
    """
    if not _guard_on:
        return value
    return _freeze(value)


def _freeze(value):
    if isinstance(value, Serializable):
        if not getattr(value, _FROZEN, False):
            for name in type(value)._field_index():
                object.__setattr__(value, name,
                                   _freeze(getattr(value, name)))
            object.__setattr__(value, _FROZEN, True)
        return value
    if isinstance(value, dict):
        if type(value) is FrozenDict:
            return value
        return FrozenDict((key, _freeze(item)) for key, item in value.items())
    if isinstance(value, list):
        if type(value) is FrozenList:
            return value
        return FrozenList(_freeze(item) for item in value)
    return value


def _guarded_setattr(self, name, value):
    if getattr(self, _FROZEN, False):
        raise FrozenError(
            f"{type(self).__name__}.{name} assigned on a shared snapshot; "
            "derive a private object with replace() or copy() first")
    object.__setattr__(self, name, value)


def _guarded_delattr(self, name):
    if getattr(self, _FROZEN, False):
        raise FrozenError(
            f"{type(self).__name__}.{name} deleted on a shared snapshot")
    object.__delattr__(self, name)


def _raising(name):
    def method(self, *args, **kwargs):
        raise FrozenError(
            f"{name}() on a frozen {type(self).__bases__[0].__name__}: the "
            "value is shared; copy it before mutating")
    method.__name__ = name
    return method


class FrozenDict(dict):
    """A dict whose mutators raise (see :func:`freeze`, :data:`EMPTY_DICT`)."""

    __slots__ = ()


class FrozenList(list):
    """A list whose mutators raise (see :func:`freeze`, :data:`EMPTY_LIST`)."""

    __slots__ = ()


for _name in ("__setitem__", "__delitem__", "__ior__", "clear", "pop",
              "popitem", "setdefault", "update"):
    setattr(FrozenDict, _name, _raising(_name))
for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append",
              "clear", "extend", "insert", "pop", "remove", "reverse", "sort"):
    setattr(FrozenList, _name, _raising(_name))
del _name

# What ``from_dict`` puts in every absent collection field whose default
# is an empty list / dict: one shared value, immutable whether or not
# the guard is on, so a decoded object costs no container per absent
# field.  Writers never edit a decoded object in place anyway.
EMPTY_LIST = FrozenList()
EMPTY_DICT = FrozenDict()


# ---------------------------------------------------------------------------
# Per-class serde codegen
# ---------------------------------------------------------------------------

_MISSING = object()

# isinstance() of any of these implies _dump is identity; checked first
# because the overwhelming majority of field values are scalars.
_SCALAR_TYPES = (str, int, float, bool)


class _SerdeCodegen:
    """Compiles the specialized per-class serde methods.

    The per-field dispatch (field iteration, container branching,
    default construction, nested-type probing) is resolved here once, at
    class-creation time, instead of on every call.
    """

    def __init__(self, cls):
        self.cls = cls
        self.ns = {
            "cls": cls,
            "fast_deep_copy": fast_deep_copy,
            "_dump": _dump,
            "_MISSING": _MISSING,
            "_SCALAR_TYPES": _SCALAR_TYPES,
            "_CONTAINER_TYPES": _CONTAINER_TYPES,
            "_EMPTY_LIST": EMPTY_LIST,
            "_EMPTY_DICT": EMPTY_DICT,
            "_chars": _chars,
            "_list_chars": _list_chars,
            "_map_chars": _map_chars,
            "_set": object.__setattr__,
        }
        self._n = 0

    def const(self, prefix, value):
        self._n += 1
        name = f"_{prefix}{self._n}"
        self.ns[name] = value
        return name

    def compile(self, name, lines):
        source = "\n".join(lines)
        code = compile(source, f"<serde {self.cls.__name__}.{name}>", "exec")
        scope = {}
        exec(code, self.ns, scope)
        return scope[name]

    def default_expr(self, field):
        if field.default_factory is not None:
            return f"{self.const('df', field.default_factory)}()"
        if field.default is None:
            return "None"
        return self.const("dv", field.default)

    def absent_expr(self, field):
        """What ``from_dict`` stores for a field the wire omits: the
        shared empty where the default is an empty list / dict."""
        if field.default_factory is list:
            return "_EMPTY_LIST"
        if field.default_factory is dict:
            return "_EMPTY_DICT"
        return self.default_expr(field)

    @staticmethod
    def keeps_empty(field):
        """Whether an empty collection is written to the wire.

        Empty collections are omitted — except when the field's default
        is non-empty, in which case an explicit empty value is
        meaningful (e.g. a Namespace whose ``spec.finalizers`` were
        cleared) and must round-trip rather than resurrect the default.
        """
        return field.default_factory is not None and bool(
            field.default_factory())

    def unknown_fields_check(self, kwargs):
        return [
            f"    if {kwargs}:",
            f"        unknown = ', '.join(sorted({kwargs}))",
            f"        raise TypeError({self.cls.__name__ + ': unknown fields: '!r}"
            f" + unknown)",
        ]

    def gen_init(self, fields):
        lines = ["def __init__(self, **kwargs):",
                 "    pop = kwargs.pop"]
        for field in fields:
            name = field.py_name
            if field.default_factory is None:
                lines.append(f"    self.{name} = pop({name!r}, "
                             f"{self.default_expr(field)})")
            else:   # only a missing field pays for its factory
                lines.append(f"    v = pop({name!r}, _MISSING)")
                lines.append(f"    self.{name} = "
                             f"{self.default_expr(field)} if v is _MISSING else v")
        lines += self.unknown_fields_check("kwargs")
        return self.compile("__init__", lines)

    def gen_replace(self, fields):
        lines = ["def replace(self, **changes):",
                 "    pop = changes.pop",
                 "    obj = cls.__new__(cls)"]
        for field in fields:
            name = field.py_name
            lines.append(f"    obj.{name} = pop({name!r}, self.{name})")
        lines += self.unknown_fields_check("changes")
        lines.append("    return obj")
        return self.compile("replace", lines)

    def load_expr(self, field, raw, fresh=False):
        """``field``'s value decoded from wire value ``raw``; ``fresh``
        copies a decoded child so that it holds no shared empty."""
        ftype = field.type
        if ftype is None:
            # Untyped payloads are copied so a decoded object never
            # aliases the wire dict it was built from.
            return (f"(fast_deep_copy({raw})"
                    f" if isinstance({raw}, _CONTAINER_TYPES) else {raw})")
        tname = self.const("ty", ftype)
        has_from_dict = hasattr(ftype, "from_dict")
        has_from_serialized = hasattr(ftype, "from_serialized")
        decode = f"{tname}.from_dict({raw})" + (".copy()" if fresh else "")
        if has_from_dict and has_from_serialized:
            return (f"({decode} if isinstance({raw}, dict)"
                    f" else {tname}.from_serialized({raw}))")
        if has_from_dict:
            return f"({decode} if isinstance({raw}, dict) else {raw})"
        if has_from_serialized:
            return f"{tname}.from_serialized({raw})"
        return raw

    def decode_expr(self, field):
        """``field``'s value decoded from a present wire value ``raw``."""
        if field.container == "list":
            return f"[{self.load_expr(field, 'item')} for item in raw]"
        if field.container == "map":
            return (f"{{key: {self.load_expr(field, 'value')}"
                    f" for key, value in raw.items()}}")
        return self.load_expr(field, "raw")

    def gen_from_dict(self, fields):
        lines = ["def from_dict(cls, data):",
                 "    if data is None:",
                 "        return None",
                 "    obj = cls.__new__(cls)",
                 "    get = data.get"]
        for field in fields:
            lines.append(f"    raw = get({field.json_name!r})")
            lines.append(f"    obj.{field.py_name} = "
                         f"{self.absent_expr(field)} if raw is None"
                         f" else {self.decode_expr(field)}")
        lines.append("    return obj")
        return self.compile("from_dict", lines)

    def loader(self, field):
        """A compiled one-argument ``from_dict`` step for one wire value
        of ``field``, returning a fresh object; returns its name."""
        name = self.const("ld", None)
        self.ns[name] = self.compile(
            name, [f"def {name}(raw):",
                   f"    return {self.load_expr(field, 'raw', fresh=True)}"])
        return name

    def copy_item_expr(self, field, item):
        """``item`` (a field value or a collection element) as the wire
        round trip would give it back, without the wire where possible:
        scalars and :class:`Quantity` values are shared, a child of
        exactly the declared type copies itself, untyped payloads go
        through ``_dump`` (which copies containers), and anything else
        — a dict or string standing in for a typed value, a subclass —
        really is dumped and loaded."""
        ftype = field.type
        if ftype is None:
            return (f"{item} if isinstance({item}, _SCALAR_TYPES)"
                    f" else _dump({item})")
        tname = self.const("ty", ftype)
        reload = f"{self.loader(field)}(_dump({item}))"
        if issubclass(ftype, Serializable):
            return f"{item}.copy() if type({item}) is {tname} else {reload}"
        if ftype is Quantity:
            return f"{item} if type({item}) is {tname} else {reload}"
        return reload

    def copy_expr(self, field):
        default = self.default_expr(field)
        if field.container is None:
            return f"{default} if v is None else {self.copy_item_expr(field, 'v')}"
        if field.container == "list":
            value = f"[{self.copy_item_expr(field, 'item')} for item in v]"
            empty = "[]"
        else:
            value = (f"{{k: {self.copy_item_expr(field, 'item')}"
                     f" for k, item in v.items()}}")
            empty = "{}"
        # An empty or absent collection comes back as to_dict + from_dict
        # would return it, but always as a fresh container.
        if field.default_factory in (list, dict):
            fallback = empty
        elif self.keeps_empty(field):
            fallback = f"({empty} if v is not None else {default})"
        else:
            fallback = default
        return f"{value} if v else {fallback}"

    def gen_copy(self, fields):
        lines = ["def copy(self):",
                 '    """Deep copy: a fully private, mutable object equal'
                 ' field for field to ``from_dict(to_dict())``, built'
                 ' without the wire."""',
                 "    obj = cls.__new__(cls)"]
        for field in fields:
            lines.append(f"    v = self.{field.py_name}")
            lines.append(f"    obj.{field.py_name} = {self.copy_expr(field)}")
        lines.append("    return obj")
        return self.compile("copy", lines)

    def dump_expr(self, field, value):
        if field.type is None:
            return (f"({value} if isinstance({value}, _SCALAR_TYPES)"
                    f" else _dump({value}))")
        return f"_dump({value})"

    def header_line(self):
        header_items = []
        for key, value in self.cls._wire_header():
            if value is None or isinstance(value, _SCALAR_TYPES):
                header_items.append(f"{key!r}: {value!r}")
            else:
                header_items.append(f"{key!r}: {self.const('wh', value)}")
        return "    out = {" + ", ".join(header_items) + "}"

    def encode_lines(self, field, pad):
        """``to_dict``'s lines writing ``v`` (the value of ``field``)
        into ``out``, each line prefixed with ``pad``."""
        key = field.json_name
        if field.container is None:
            return [f"{pad}if v is not None:",
                    f"{pad}    out[{key!r}] = {self.dump_expr(field, 'v')}"]
        if field.container == "list":
            expr = f"[{self.dump_expr(field, 'item')} for item in v]"
            empty = "[]"
        else:
            expr = (f"{{k: {self.dump_expr(field, 'item')}"
                    f" for k, item in v.items()}}")
            empty = "{}"
        lines = [f"{pad}if v:", f"{pad}    out[{key!r}] = {expr}"]
        if self.keeps_empty(field):
            lines += [f"{pad}elif v is not None:",
                      f"{pad}    out[{key!r}] = {empty}"]
        return lines

    def gen_to_dict(self, fields):
        lines = ["def to_dict(self):", self.header_line()]
        for field in fields:
            lines.append(f"    v = self.{field.py_name}")
            lines += self.encode_lines(field, "    ")
        lines.append("    return out")
        return self.compile("to_dict", lines)

    def gen_wire_chars(self, fields):
        """``len(str(self.to_dict()))`` without the dict: each present
        field adds its key, its ``": "`` and ``", "`` and its value's
        count, exactly as ``to_dict`` would write it.  The count is
        memoized in the ``_chars`` slot, so children that successive
        revisions share are counted once."""
        chars = 0
        for key, value in self.cls._wire_header():
            chars += len(repr(key)) + len(repr(value)) + 4
        lines = ["def wire_chars(self):",
                 '    """``len(str(self.to_dict()))``, memoized (see'
                 ' :func:`wire_chars`)."""',
                 "    n = getattr(self, '_chars', None)",
                 "    if n is not None:",
                 "        return n",
                 f"    n = {chars}"]
        for field in fields:
            entry = len(repr(field.json_name)) + 4
            lines.append(f"    v = self.{field.py_name}")
            if field.container is None:
                lines += ["    if v is not None:",
                          f"        n += {entry} + _chars(v)"]
                continue
            count = "_list_chars" if field.container == "list" else "_map_chars"
            lines += ["    if v:", f"        n += {entry} + {count}(v)"]
            if self.keeps_empty(field):
                lines += ["    elif v is not None:", f"        n += {entry + 2}"]
        lines += ["    n = n or 2",
                  "    _set(self, '_chars', n)",
                  "    return n"]
        return self.compile("wire_chars", lines)


# Types whose ``repr`` is their wire form's: ``_dump`` passes a scalar
# through and copies a plain container without converting its items.
_REPR_IS_WIRE = frozenset((str, int, float, bool, type(None), dict, list))


def _chars(value):
    """``len(str(...))`` of what ``to_dict`` writes for one value."""
    if value.__class__ in _REPR_IS_WIRE:
        return len(repr(value))
    if isinstance(value, Serializable):
        return value.wire_chars()
    if isinstance(value, _CONTAINER_TYPES) or not hasattr(
            value, "to_serialized"):
        return len(repr(value))
    return len(repr(value.to_serialized()))


def _list_chars(values):
    # "[a, b]": two brackets and a ", " between items.
    return sum(map(_chars, values)) + 2 * len(values)


def _map_chars(values):
    # "{k: a, l: b}": two braces, and ": " and ", " per item less one.
    return (sum(map(len, map(repr, values))) + sum(map(_chars,
                                                      values.values()))
            + 4 * len(values))


# ---------------------------------------------------------------------------
# Reading typed values in wire terms
# ---------------------------------------------------------------------------


def _present(field, value):
    """Whether ``to_dict`` writes ``field`` holding ``value``."""
    if field.container is None:
        return value is not None
    return bool(value) or (value is not None
                           and _SerdeCodegen.keeps_empty(field))


def wire_equal(a, b):
    """``_dump(a) == _dump(b)`` — whether two values have equal wire
    forms — without encoding where it can be helped: identical values
    are equal, and two objects of one type compare field by field."""
    if a is b:
        return True
    if type(a) is type(b) and isinstance(a, Serializable):
        return fields_equal(a, b)
    return _dump(a) == _dump(b)


def fields_equal(a, b, ignore=()):
    """Whether two objects of one type have equal wire forms, the fields
    whose wire names are in ``ignore`` aside."""
    for field in type(a)._field_index().values():
        if field.json_name in ignore:
            continue
        va = getattr(a, field.py_name)
        vb = getattr(b, field.py_name)
        if va is vb:
            continue
        present = _present(field, va)
        if present != _present(field, vb):
            return False
        if not present:
            continue
        if field.container is None:
            if not wire_equal(va, vb):
                return False
        elif field.container == "list":
            if len(va) != len(vb) or not all(map(wire_equal, va, vb)):
                return False
        elif va.keys() != vb.keys() or not all(
                wire_equal(value, vb[key]) for key, value in va.items()):
            return False
    return True


def wire_child(obj, name):
    """The value ``obj.to_dict()`` holds at key ``name``, left typed
    where it is an object: None where the wire has no such key."""
    field = type(obj)._wire_index().get(name)
    if field is None:
        return dict(type(obj)._wire_header()).get(name)
    value = getattr(obj, field.py_name)
    return value if _present(field, value) else None


def wire_leaf(value):
    """A value read with :func:`wire_child` as the wire holds it."""
    if value is None or isinstance(value, _SCALAR_TYPES):
        return value
    if isinstance(value, list):
        return [wire_leaf(item) for item in value]
    if isinstance(value, dict):
        return {key: wire_leaf(item) for key, item in value.items()}
    return _dump(value)
