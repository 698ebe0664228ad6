"""The static analyzer: one driver over both rule packs, plus the C-rules.

:func:`check_paths` loads one :class:`~repro.analysis.project.Project`
(each file parsed once), then for every module runs the determinism
rules D001–D006 (:mod:`repro.analysis.linter`) and the concurrency &
protocol rules below, reads its ``allow[...]`` comments in one tokenize
pass, and buckets every finding as active, suppressed, allowlisted or
stale in one place.

C-rules (each decided inside one module)
----------------------------------------

C003  module-level mutable state written from a function
C004  Timeout/Event created and dropped (orphaned timer)
C005  unfenced store write from a leader-elected component
C006  shared snapshot (cache entry, handler argument, client read or
      write result) mutated in place without a copy()/replace() rebinding

Every finding can be suppressed per line with ``# repro: allow[XXXX]
why`` or per file in ``analysis-allowlist.txt``.  The meta-rule A000
(unsuppressible) reports unknown codes, unparseable files and, under
``--strict``, suppressions or allowlist entries that match nothing.

CLI: ``python -m repro.analysis check PATHS [--strict] [--allowlist F]
[--verbose]``.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

from .linter import lint_module
from .project import Project, dotted_name
from .rules import META_RULE, RULES, SUPPRESSIBLE, Finding

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")

# Mutable module-level containers (C003).  itertools.count is included:
# next() on a shared counter is a write that diverges across schedules.
_MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "bytearray",
    "collections.defaultdict", "collections.deque",
    "collections.OrderedDict", "collections.Counter",
    "defaultdict", "deque", "OrderedDict", "Counter",
    "itertools.count", "count",
}

# Method calls that mutate a container in place (C003 and C006 write
# sites).
_MUTATOR_METHODS = {
    "append", "appendleft", "add", "update", "setdefault", "pop",
    "popleft", "popitem", "remove", "discard", "clear", "extend",
    "insert", "sort", "reverse",
}

# Kernel event constructors (C004).  Dotted ``.timeout``/``.event``
# factory calls are matched by suffix; bare ``Timeout``/``Event`` names
# only when the import resolves to the simkernel.
_SIM_EVENT_QUALS = {
    "repro.simkernel.Timeout", "repro.simkernel.events.Timeout",
    "repro.simkernel.Event", "repro.simkernel.events.Event",
}

# Leader-elected components whose write paths must be fenced (C005).
LEADER_ELECTED_CLASSES = ("StoreCoordinator", "SyncerHA")

# Raw-store write methods (C005) when called on a ``...store`` object.
_STORE_WRITE_METHODS = {"put", "delete", "txn"}

# Shared-snapshot sources (C006).  Cache reads returning one object /
# a list of objects, on a receiver whose last name segment says cache;
# client reads — and writes, which return the stored snapshot — are
# recognised by ``yield from <recv>.<method>(...)``.
_CACHE_GET_METHODS = {"get"}
_CACHE_LIST_METHODS = {"by_index", "by_namespace", "by_label",
                       "select_labels", "items", "select"}
_CLIENT_GET_METHODS = {"get", "get_pod", "create", "create_pod", "update",
                       "update_status"}
_CLIENT_LIST_METHODS = {"list", "list_pods"}
_HANDLER_KEYWORDS = ("on_add", "on_update", "on_delete")


def parse_comments(source, path):
    """``(suppressions, errors)`` from one tokenize pass.

    Only real comment tokens count — the syntax can be *mentioned* in a
    docstring or string literal without taking effect.
    ``suppressions`` maps line -> set of known rule codes, and
    ``errors`` holds one A000 finding per unknown code.
    """
    suppressions, errors = {}, []
    try:
        comments = [
            (token.start, token.string)
            for token in tokenize.generate_tokens(
                io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):
        comments = []
    for (lineno, col), text in comments:
        match = _ALLOW_RE.search(text)
        if not match:
            continue
        codes = {code.strip() for code in match.group(1).split(",")
                 if code.strip()}
        for code in sorted(codes - SUPPRESSIBLE):
            errors.append(Finding(
                path, lineno, col, META_RULE,
                f"suppression names unknown rule code {code!r} "
                f"(known: {', '.join(sorted(SUPPRESSIBLE))})"))
        if codes & SUPPRESSIBLE:
            suppressions[lineno] = codes & SUPPRESSIBLE
    return suppressions, errors


def _params(func):
    """The names of a function's positional and keyword parameters."""
    args = func.args
    return [arg.arg for arg in args.posonlyargs + args.args
            + args.kwonlyargs]


class _ModuleChecker(ast.NodeVisitor):
    """Per-module pass for C003–C006."""

    def __init__(self, module):
        self.module = module
        self.findings = []
        self.mutables = self._module_mutables()
        self.handlers = self._informer_handlers()
        self._class_stack = []
        self._func_stack = []   # enclosing function nodes, outermost first

    def _emit(self, node, code, message):
        self.findings.append(Finding(
            self.module.path, node.lineno, node.col_offset, code, message))

    # -- module-level mutables (C003) ----------------------------------

    def _module_mutables(self):
        """name -> definition line of module-level mutable containers."""
        mutables = {}
        for node in self.module.tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if not self._is_mutable_value(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name) \
                        and target.id != "__all__":
                    mutables[target.id] = node.lineno
        return mutables

    def _is_mutable_value(self, value):
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                              ast.SetComp, ast.DictComp)):
            return True
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is None:
                return False
            resolved = self.module.resolve(name)
            return resolved in _MUTABLE_CONSTRUCTORS \
                or name in _MUTABLE_CONSTRUCTORS
        return False

    def _mutable_target(self, name):
        """The module-level mutable ``name`` refers to, or None (also
        for a name shadowed by a local binding in an enclosing
        function)."""
        if name not in self.mutables:
            return None
        for func in self._func_stack:
            if name in self._local_bindings(func):
                return None
        return name

    _BINDINGS_ATTR = "_staticcheck_local_bindings"

    def _local_bindings(self, func):
        """Names bound locally (params and assignments) in ``func``."""
        cached = getattr(func, self._BINDINGS_ATTR, None)
        if cached is not None:
            return cached
        bindings = set(_params(func))
        hoisted = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                bindings.add(node.id)
            elif isinstance(node, ast.Global):
                # `global NAME` writes the module binding, not a local.
                hoisted.update(node.names)
        bindings -= hoisted
        setattr(func, self._BINDINGS_ATTR, bindings)
        return bindings

    def _check_mutation(self, name_node, how, node):
        # Import-time code (module scope, class bodies) runs once per
        # interpreter, not per run, and is not checked.
        if not isinstance(name_node, ast.Name) or not self._func_stack:
            return
        target = self._mutable_target(name_node.id)
        if target is None:
            return
        self._emit(node, "C003",
                   f"module-level mutable {target!r} (defined at line "
                   f"{self.mutables[target]}) {how} from a function; it "
                   f"outlives the Simulation, so a second run in the "
                   f"same interpreter starts from the first run's state "
                   f"— own it per-Simulation")

    # -- scope bookkeeping ---------------------------------------------

    def visit_ClassDef(self, node):
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node):
        self._func_stack.append(node)
        body_nodes = self._body_nodes(node)
        self._check_orphan_events(body_nodes)
        self._check_snapshot_mutation(node, body_nodes)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    # -- C004: orphaned Timeout/Event ----------------------------------

    def _event_ctor(self, call):
        """Short description if ``call`` creates a kernel event."""
        name = dotted_name(call.func)
        if name is None:
            return None
        if "." in name:
            base, _, tail = name.rpartition(".")
            # Factory calls only count on a sim-like receiver — other
            # objects legitimately expose .event()/.timeout() methods
            # (EventRecorder.event records a k8s Event, not a kernel
            # one).
            if tail in ("timeout", "event") and (
                    base in ("sim", "self.sim")
                    or base.endswith(".sim")):
                return f"{name}(...)"
        resolved = self.module.resolve(name)
        if resolved in _SIM_EVENT_QUALS:
            return f"{name}(...)"
        return None

    @staticmethod
    def _body_nodes(func):
        """Every node of ``func``'s own body (nested defs, lambdas and
        classes are separate scopes and left out)."""
        body_nodes = []
        stack = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                continue
            body_nodes.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return body_nodes

    def _check_orphan_events(self, body_nodes):
        """Flag events created in a function body and dropped on every
        path."""
        loaded = set()
        for node in body_nodes:
            if isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)

        for node in body_nodes:
            # (a) bare expression statement: created, never bound.
            if isinstance(node, ast.Expr) \
                    and isinstance(node.value, ast.Call):
                ctor = self._event_ctor(node.value)
                if ctor is not None:
                    self._emit(
                        node, "C004",
                        f"{ctor} creates a kernel event that is "
                        f"dropped on the spot: nothing can await or "
                        f"cancel it, so it sits in the heap/wheel "
                        f"until its deadline (or, if it fails, "
                        f"crashes the run undefused)")
            # (b) bound to a local that is never read again.
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Call):
                ctor = self._event_ctor(node.value)
                if ctor is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) \
                            and target.id not in loaded:
                        self._emit(
                            node, "C004",
                            f"{ctor} is bound to {target.id!r} but "
                            f"{target.id!r} is never awaited, "
                            f"combined, stored, or returned — an "
                            f"orphaned timer/event")

    # -- C006: shared snapshot mutated in place -------------------------

    def _informer_handlers(self):
        """Names of this module's methods registered as informer
        handlers (``add_handlers(on_add=self._x, ...)``)."""
        names = set()
        for node in ast.walk(self.module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_handlers"):
                continue
            values = list(node.args) + [kw.value for kw in node.keywords
                                        if kw.arg in _HANDLER_KEYWORDS]
            for value in values:
                if isinstance(value, ast.Attribute) \
                        and isinstance(value.value, ast.Name) \
                        and value.value.id == "self":
                    names.add(value.attr)
        return names

    @staticmethod
    def _snapshot_source(value):
        """``"object"``/``"list"`` when ``value`` reads shared snapshots
        from a cache or a client, else None."""
        from_client = isinstance(value, ast.YieldFrom)
        call = value.value if from_client else value
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)):
            return None
        method = call.func.attr
        if from_client:
            if method in _CLIENT_GET_METHODS:
                return "object"
            return "list" if method in _CLIENT_LIST_METHODS else None
        receiver = call.func.value
        if isinstance(receiver, ast.Call):     # self.super_cache().get(k)
            receiver = receiver.func
        name = dotted_name(receiver)
        if name is None or not name.rsplit(".", 1)[-1].endswith("cache"):
            return None
        if method in _CACHE_GET_METHODS:
            return "object"
        return "list" if method in _CACHE_LIST_METHODS else None

    @staticmethod
    def _chain_root(node):
        """(root Name id, attribute seen, subscript seen) of a pure
        attribute/subscript chain; root None for anything else."""
        attribute = subscript = False
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                attribute = True
            else:
                subscript = True
            node = node.value
        if isinstance(node, ast.Name):
            return node.id, attribute, subscript
        return None, attribute, subscript

    def _check_snapshot_mutation(self, func, body_nodes):
        """Source-order, intra-procedural taint: names bound from a
        snapshot source stay tainted until rebound from anything else
        (``x = x.copy()``, ``x = x.replace(...)``)."""
        objects = set()     # names holding one shared snapshot
        lists = set()       # names holding a list of them
        if func.name in self.handlers:
            objects.update(p for p in _params(func) if p != "self")

        def taint_of(value):
            source = self._snapshot_source(value)
            if source is not None:
                return source
            root, _attribute, subscript = self._chain_root(value)
            if root in objects:
                return "object"         # alias: spec = lease.spec
            if root in lists:
                return "object" if subscript else "list"
            return None

        def bind(target, taint):
            if isinstance(target, ast.Tuple) and taint == "list" \
                    and target.elts:
                # items, revision = yield from client.list(...)
                bind(target.elts[0], "list")
                return
            if not isinstance(target, ast.Name):
                return
            objects.discard(target.id)
            lists.discard(target.id)
            if taint == "object":
                objects.add(target.id)
            elif taint == "list":
                lists.add(target.id)

        def mutated(target):
            """The tainted root a store/mutator on ``target`` edits."""
            root, attribute, subscript = self._chain_root(target)
            if root in objects and (attribute or subscript):
                return root
            if root in lists and attribute:     # pods[0].status = ...
                return root
            return None

        def flag(node, target, how):
            root = mutated(target)
            if root is not None:
                self._emit(
                    node, "C006",
                    f"{how} edits {root!r}, a shared snapshot (cache "
                    f"entry, informer handler argument or client "
                    f"read/write result) in place; every other holder sees "
                    f"the edit — rebind it first with .replace(...) or "
                    f".copy()")

        nodes = [node for node in body_nodes if hasattr(node, "lineno")]
        nodes.sort(key=lambda node: (node.lineno, node.col_offset))

        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    flag(node, target, "assignment")
                taint = taint_of(node.value)
                for target in node.targets:
                    bind(target, taint)
            elif isinstance(node, ast.AugAssign):
                flag(node, node.target, "augmented assignment")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    flag(node, target, "del")
            elif isinstance(node, (ast.For, ast.comprehension)):
                taint = taint_of(node.iter)
                bind(node.target, "object" if taint == "list" else None)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATOR_METHODS \
                    and not isinstance(node.func.value, ast.Name):
                flag(node, node.func.value, f".{node.func.attr}()")

    # -- C005 / C003 call & write sites --------------------------------

    def _subscript_bases(self, targets):
        for target in targets:
            if isinstance(target, ast.Subscript):
                yield target.value
            elif isinstance(target, (ast.Tuple, ast.List)):
                yield from self._subscript_bases(target.elts)

    def visit_Assign(self, node):
        for base in self._subscript_bases(node.targets):
            self._check_mutation(base, "written by item assignment",
                                 node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        for base in self._subscript_bases([node.target]):
            self._check_mutation(base, "written by item assignment",
                                 node)
        self.generic_visit(node)

    def visit_Delete(self, node):
        for base in self._subscript_bases(node.targets):
            self._check_mutation(base, "shrunk by del", node)
        self.generic_visit(node)

    def visit_Call(self, node):
        self._check_fencing(node)
        # C003: in-place mutator methods and next() on module mutables.
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in _MUTATOR_METHODS:
            self._check_mutation(func.value,
                                 f"mutated via .{func.attr}()", node)
        elif isinstance(func, ast.Name) and func.id == "next" \
                and node.args:
            self._check_mutation(node.args[0],
                                 "advanced via next()", node)
        self.generic_visit(node)

    def _in_leader_elected(self):
        return bool(self._class_stack) \
            and self._class_stack[-1] in LEADER_ELECTED_CLASSES

    def _check_fencing(self, node):
        if not self._in_leader_elected():
            return
        name = dotted_name(node.func)
        if name is None:
            return
        cls = self._class_stack[-1]
        if name.endswith(".transaction"):
            if not any(kw.arg == "fencing" for kw in node.keywords):
                self._emit(
                    node, "C005",
                    f"transaction() from leader-elected {cls} without "
                    f"fencing=; a deposed leader's in-flight writes "
                    f"would land after the new leader's fence barrier")
        elif "." in name:
            base, _, method = name.rpartition(".")
            if method in _STORE_WRITE_METHODS \
                    and base.rsplit(".", 1)[-1].endswith("store"):
                self._emit(
                    node, "C005",
                    f"raw store write {name}() from leader-elected "
                    f"{cls} bypasses the fencing-token check; route "
                    f"it through a fenced transaction")


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def load_allowlist(path):
    """Parse the committed allowlist.

    Format (one entry per line)::

        <path-suffix>  <rule-code>  <justification...>

    Blank lines and ``#`` comments are ignored.  An entry allowlists
    every finding of that rule in files whose path ends with the
    suffix; the justification is mandatory so the file stays a report,
    not a mute button.
    """
    entries = []
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(None, 2)
        if len(parts) < 3:
            raise ValueError(
                f"{path}:{lineno}: allowlist entry needs "
                f"'<path> <rule> <justification>', got {stripped!r}")
        suffix, code, justification = parts
        if code not in SUPPRESSIBLE:
            raise ValueError(
                f"{path}:{lineno}: unknown rule code {code!r}")
        entries.append((suffix, code, justification))
    return entries


class CheckResult:
    """Findings bucketed by status; ``stale`` holds the A000s."""

    def __init__(self):
        self.active = []
        self.suppressed = []
        self.allowlisted = []
        self.stale = []
        self.files_checked = 0

    @property
    def ok(self):
        return not self.active and not self.stale

    def failures(self):
        """Active and A000 findings, in report order."""
        return sorted(self.active + self.stale,
                      key=lambda f: (f.path, f.line, f.col, f.code))

    def summary(self):
        return (f"{self.files_checked} files checked: "
                f"{len(self.active)} finding(s), "
                f"{len(self.stale)} A000 (stale/invalid suppression or "
                f"unparseable file), "
                f"{len(self.suppressed)} suppressed, "
                f"{len(self.allowlisted)} allowlisted")


def check_paths(paths, allowlist=(), strict=False):
    """Run every rule over files/trees; returns a :class:`CheckResult`.

    ``allowlist`` is a list of ``(path_suffix, code, justification)``
    entries from :func:`load_allowlist`.  ``strict`` also fails
    suppressions that no longer match a finding and allowlist entries
    that no longer match any file.
    """
    project = Project.load(paths)
    result = CheckResult()
    for path, exc in project.unparsed:
        result.stale.append(Finding(
            path, getattr(exc, "lineno", None) or 1,
            max((getattr(exc, "offset", None) or 1) - 1, 0), META_RULE,
            f"syntax error: {getattr(exc, 'msg', exc)}; file not checked"))
    used_allowlist = set()
    for name in sorted(project.modules):
        module = project.modules[name]
        result.files_checked += 1
        suppressions, errors = parse_comments(module.source, module.path)
        result.stale.extend(errors)
        checker = _ModuleChecker(module)
        checker.visit(module.tree)
        findings = lint_module(module) + checker.findings
        findings.sort(key=lambda f: (f.line, f.col, f.code, f.message))
        used_suppressions = set()
        for finding in findings:
            if finding.code in suppressions.get(finding.line, ()):
                finding.status = "suppressed"
                used_suppressions.add((finding.line, finding.code))
            else:
                entry = next(
                    (entry for entry in allowlist
                     if module.path.endswith(entry[0])
                     and finding.code == entry[1]), None)
                if entry is not None:
                    finding.status = "allowlisted"
                    used_allowlist.add(entry)
            getattr(result, finding.status).append(finding)
        if strict:
            result.stale.extend(
                Finding(module.path, lineno, 0, META_RULE,
                        f"stale suppression: no {code} finding on this "
                        f"line (remove the allow comment)")
                for lineno, codes in sorted(suppressions.items())
                for code in sorted(codes)
                if (lineno, code) not in used_suppressions)
    if strict:
        result.stale.extend(
            Finding(entry[0], 0, 0, META_RULE,
                    f"stale allowlist entry: no {entry[1]} finding "
                    f"matches {entry[0]!r}")
            for entry in allowlist if entry not in used_allowlist)
    result.active.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    result.stale.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return result


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------


def format_report(result, verbose=False):
    """Human-readable report: one clickable line per failure."""
    lines = [finding.format() for finding in result.failures()]
    if verbose:
        lines += [f"{finding.format()} [{finding.status}]"
                  for finding in result.suppressed + result.allowlisted]
    lines.append(result.summary())
    for finding in result.active:
        rule = RULES.get(finding.code)
        if rule:
            lines.append(f"  {finding.code}: {rule.title}")
            break
    return "\n".join(lines)
