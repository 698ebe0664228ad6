"""Determinism rules D001–D006: the per-module half of the analyzer.

Two passes per module, both over the tree and imports already parsed
into a :class:`~repro.analysis.project.ModuleInfo`:

1. a *collect* pass infers which local names and ``self.X``
   attributes are set-typed (for D003), and records which identifiers
   feed heap priorities or timeout delays (for D005);
2. a *check* pass walks expressions and emits findings, resolving call
   targets through :meth:`ModuleInfo.resolve`.

The rules are deliberately a static approximation: they prefer
precise, high-signal patterns (set literals, ``set()`` construction,
attributes initialized as sets in the same class) over whole-program
type inference, and every rule has an in-place escape hatch
(``# repro: allow[DXXX]``) plus a file-scoped allowlist for the
irreducible residue.  :func:`repro.analysis.staticcheck.check_paths`
runs them next to the C-rules.
"""

import ast

from .project import dotted_name
from .rules import Finding

# Calls whose dotted name ends with one of these are wall-clock reads.
_WALLCLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.sleep",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

# Consumers for which input order is provably irrelevant (D003 exempt).
_ORDER_INSENSITIVE = {
    "sorted", "sum", "len", "min", "max", "any", "all", "set", "frozenset",
    "Counter",
}

# Wrappers that materialize an ordered sequence from their argument's
# iteration order (D003 sinks when fed a set).
_ORDER_SENSITIVE_WRAPPERS = {"list", "tuple", "enumerate", "iter"}

_HASH_FUNCS = {
    "zlib.crc32", "zlib.adler32", "binascii.crc32",
    "hashlib.md5", "hashlib.sha1", "hashlib.sha256", "hashlib.sha512",
    "hashlib.blake2b", "hashlib.blake2s",
}

_REPR_METHODS = {"__repr__", "__str__", "__format__"}


def _target_key(node):
    """A scope-local key for an assignment target: name or ``self.attr``."""
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return f"self.{node.attr}"
    return None


class _ModuleFacts(ast.NodeVisitor):
    """Collect pass: set-typed names, priority identifiers."""

    def __init__(self):
        # scope id -> set of keys known set-typed ("x", "self._watches").
        self.set_names = {}
        # identifiers whose value feeds a heap priority / timeout delay.
        self.priority_idents = set()
        self._scope_stack = [("module",)]

    # -- scopes --------------------------------------------------------

    def _scope(self):
        return self._scope_stack[-1]

    def _class_scope(self):
        for scope in reversed(self._scope_stack):
            if scope[0] == "class":
                return scope
        return None

    def visit_ClassDef(self, node):
        self._scope_stack.append(("class", node.name, id(node)))
        self.generic_visit(node)
        self._scope_stack.pop()

    def _visit_func(self, node):
        self._scope_stack.append(("func", node.name, id(node)))
        self.generic_visit(node)
        self._scope_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    # -- set-typed inference -------------------------------------------

    def _literal_set_expr(self, node):
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _record_set(self, target):
        key = _target_key(target)
        if key is None:
            return
        if key.startswith("self."):
            scope = self._class_scope()
            if scope is None:
                return
        else:
            scope = self._scope()
        self.set_names.setdefault(scope, set()).add(key)

    def visit_Assign(self, node):
        if self._literal_set_expr(node.value):
            for target in node.targets:
                self._record_set(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if node.value is not None and self._literal_set_expr(node.value):
            self._record_set(node.target)
        self.generic_visit(node)

    # -- priority identifiers (D005) -----------------------------------

    def _idents_in(self, node):
        out = set()
        for sub in ast.walk(node):
            key = _target_key(sub)
            if key is not None:
                out.add(key)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
        return out

    def visit_Call(self, node):
        dotted = dotted_name(node.func)
        if dotted and (dotted.endswith("heappush")
                       or dotted.endswith("heapreplace")
                       or dotted.endswith("heappushpop")):
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Tuple) \
                    and node.args[1].elts:
                self.priority_idents |= self._idents_in(node.args[1].elts[0])
        elif dotted and (dotted.endswith(".timeout")
                         or dotted.endswith("._schedule")):
            if node.args:
                self.priority_idents |= self._idents_in(node.args[0])
        self.generic_visit(node)


class _Checker(ast.NodeVisitor):
    """Check pass: emits findings using the collected module facts."""

    def __init__(self, module, facts):
        self.module = module
        self.facts = facts
        self.findings = []
        self._scope_stack = [("module",)]
        self._func_stack = []
        # Nodes proven order-insensitive by their consumer (D003 exempt).
        self._exempt = set()

    def _emit(self, node, code, message):
        self.findings.append(Finding(self.module.path, node.lineno,
                                     node.col_offset, code, message))

    # -- scope bookkeeping (must mirror the collect pass) --------------

    def visit_ClassDef(self, node):
        self._scope_stack.append(("class", node.name, id(node)))
        self.generic_visit(node)
        self._scope_stack.pop()

    def _visit_func(self, node):
        self._scope_stack.append(("func", node.name, id(node)))
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()
        self._scope_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    # -- type resolution helpers ---------------------------------------

    def _resolve_call(self, func):
        """Dotted name of a call target with imports applied."""
        dotted = dotted_name(func)
        return None if dotted is None else self.module.resolve(dotted)

    def _is_set_like(self, node, depth=0):
        if depth > 4:
            return False
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            resolved = self._resolve_call(node.func)
            if resolved in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                    "union", "intersection", "difference",
                    "symmetric_difference"):
                return self._is_set_like(node.func.value, depth + 1)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (self._is_set_like(node.left, depth + 1)
                    or self._is_set_like(node.right, depth + 1))
        key = _target_key(node)
        if key is None:
            return False
        if key.startswith("self."):
            for scope in reversed(self._scope_stack):
                if scope[0] == "class":
                    return key in self.facts.set_names.get(scope, ())
            return False
        for scope in reversed(self._scope_stack):
            if key in self.facts.set_names.get(scope, ()):
                return True
            if scope[0] == "func":
                break  # locals don't leak out of the defining function
        return key in self.facts.set_names.get(("module",), ())

    def _flag_set_iteration(self, iter_node, where):
        if id(iter_node) in self._exempt:
            return
        if self._is_set_like(iter_node):
            name = dotted_name(iter_node) or "<set expression>"
            self._emit(iter_node, "D003",
                       f"iteration over unordered set {name!r} {where}; "
                       f"wrap in sorted(...) or use an insertion-ordered "
                       f"dict")

    # -- statements / expressions --------------------------------------

    def visit_For(self, node):
        self._flag_set_iteration(node.iter, "in a for loop")
        self.generic_visit(node)

    def _visit_comp(self, node, order_sensitive):
        for index, comp in enumerate(node.generators):
            if order_sensitive:
                self._flag_set_iteration(comp.iter, "in a comprehension")
            elif index > 0:
                # Inner generators of an order-insensitive comprehension
                # still only reorder an unordered result: exempt too.
                self._exempt.add(id(comp.iter))
        self.generic_visit(node)

    def visit_ListComp(self, node):
        self._visit_comp(node, order_sensitive=id(node) not in self._exempt)

    def visit_GeneratorExp(self, node):
        self._visit_comp(node, order_sensitive=id(node) not in self._exempt)

    def visit_DictComp(self, node):
        # Last-wins on duplicate keys makes dict building order-sensitive.
        self._visit_comp(node, order_sensitive=True)

    def visit_SetComp(self, node):
        self._visit_comp(node, order_sensitive=False)

    def visit_AugAssign(self, node):
        if isinstance(node.op, (ast.Add, ast.Sub)):
            key = _target_key(node.target)
            ident = key.split(".", 1)[-1] if key else None
            if ident and ident in self.facts.priority_idents \
                    and not isinstance(node.value, ast.Constant):
                self._emit(node, "D005",
                           f"float accumulation on {ident!r}, which feeds "
                           f"an event priority or timeout delay; compute "
                           f"it absolutely (base + k*step) instead")
        self.generic_visit(node)

    def visit_Call(self, node):
        resolved = self._resolve_call(node.func)

        # D003 consumer analysis: mark arguments of order-insensitive
        # consumers exempt *before* descending into them.
        if resolved in _ORDER_INSENSITIVE:
            for arg in node.args:
                self._exempt.add(id(arg))
        elif resolved in _ORDER_SENSITIVE_WRAPPERS:
            for arg in node.args:
                if id(node) not in self._exempt:
                    self._flag_set_iteration(
                        arg, f"materialized by {resolved}(...)")
                else:
                    self._exempt.add(id(arg))
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr == "join" and node.args):
            self._flag_set_iteration(node.args[0], "joined into a string")

        # D001 wall clock.
        if resolved is not None and any(
                resolved == pattern or resolved.endswith("." + pattern)
                for pattern in _WALLCLOCK):
            self._emit(node, "D001",
                       f"wall-clock call {resolved}(); use the "
                       f"simulation clock (sim.now / sim.timeout)")

        # D002 module-level randomness.
        if resolved is not None and resolved.startswith("random.") \
                and resolved.count(".") == 1:
            attr = resolved.split(".", 1)[1]
            if attr == "SystemRandom":
                self._emit(node, "D002",
                           "random.SystemRandom is OS-entropy seeded and "
                           "never reproducible; use random.Random(seed)")
            elif attr != "Random":
                self._emit(node, "D002",
                           f"module-level random.{attr}() uses hidden "
                           f"global state; draw from a seeded "
                           f"random.Random owned by the sim or engine")

        # D004 identity.
        if isinstance(node.func, ast.Name) and node.func.id == "id" \
                and len(node.args) == 1:
            if not (self._func_stack
                    and self._func_stack[-1] in _REPR_METHODS):
                self._emit(node, "D004",
                           "id(obj) is an allocation address; not stable "
                           "across processes (allowed only in __repr__/"
                           "__str__/__format__)")
        for keyword in node.keywords:
            if keyword.arg == "key" and isinstance(keyword.value, ast.Name) \
                    and keyword.value.id == "id":
                self._emit(node, "D004",
                           "key=id orders by allocation address; sort by "
                           "a stable attribute instead")

        # D006 non-canonical hash inputs.
        if resolved in _HASH_FUNCS or (
                resolved is not None and resolved.startswith("hashlib.")):
            for arg in node.args:
                bad = self._non_canonical_bytes(arg)
                if bad:
                    self._emit(node, "D006",
                               f"hash input built from {bad}; hash "
                               f"canonical bytes (validated str .encode() "
                               f"or explicit serialization) so routing/"
                               f"digests are process-independent")
        if isinstance(node.func, ast.Attribute) and node.func.attr == \
                "update" and node.args and resolved is None:
            # h.update(...) on a hashlib object can't be resolved
            # statically; still scan the argument for identity leaks.
            bad = self._non_canonical_bytes(node.args[0])
            if bad:
                self._emit(node, "D006",
                           f"hash update input built from {bad}; hash "
                           f"canonical bytes instead")

        self.generic_visit(node)

    def _non_canonical_bytes(self, node):
        """Why a hash-input expression is process-dependent, or None."""
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            if isinstance(sub.func, ast.Name):
                if sub.func.id in ("repr", "id", "hash"):
                    return f"{sub.func.id}(...)"
                if sub.func.id == "str" and sub.args and not isinstance(
                        sub.args[0], ast.Constant):
                    return "str(<non-literal>) (falls back to the default "\
                           "repr with a memory address for plain objects)"
            if isinstance(sub, ast.JoinedStr):
                for value in sub.values:
                    if isinstance(value, ast.FormattedValue) and \
                            value.conversion == 114:  # !r
                        return "an f-string {...!r} conversion"
        return None


def lint_module(module):
    """D-rule findings for one parsed module (no suppression handling —
    see :func:`repro.analysis.staticcheck.check_paths`)."""
    facts = _ModuleFacts()
    facts.visit(module.tree)
    checker = _Checker(module, facts)
    checker.visit(module.tree)
    return checker.findings
