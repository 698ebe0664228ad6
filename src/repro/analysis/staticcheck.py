"""Whole-program concurrency & protocol checker (rules C001–C006).

Sibling of the per-module determinism linter: where the D-pack checks
that decisions are pure functions of the seed, the C-pack checks the
*protocols* the concurrent control planes rely on — lock discipline,
timer/event lifecycle, and fencing — over a project-wide symbol table
and call graph (:mod:`repro.analysis.callgraph`,
:mod:`repro.analysis.lockgraph`).

Rules
-----

C001  blocking kernel wait while holding a Lock/Semaphore
C002  lock-order inversion (cycle in the lock-acquisition graph)
C003  module-level mutable state written from sim-process code
C004  Timeout/Event created and dropped (orphaned timer)
C005  unfenced store write from a leader-elected component
C006  shared snapshot (cache entry, handler argument, client get/list
      result) mutated in place without a copy()/replace() rebinding

Suppressions reuse the linter's machinery: per-line
``# repro: allow[CXXX] why`` comments, the shared
``analysis-allowlist.txt``, and ``--strict`` staleness checks scoped to
the C-pack (the D-linter owns D-code staleness).  C003 additionally
honors a *definition-site* exemption — ``# repro: hb-carrier[why]`` on
the module-level assignment marks the object as a registered
happens-before carrier, exempting every write to it.

CLI: ``python -m repro.analysis staticcheck [paths] [--strict]
[--format text|json|sarif]``.
"""

import ast
import io
import json
import re
import tokenize

from .callgraph import Project, dotted_name
from .linter import LintResult, parse_suppressions
from .lockgraph import LockGraph
from .rules import RULES, Finding

_HB_CARRIER_RE = re.compile(r"#\s*repro:\s*hb-carrier\[([^\]]*)\]")

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
LEADER_ELECTED_CLASSES = ("ControllerManager", "StoreCoordinator",
                          "SyncerHA")

# Raw-store write methods (C005) when called on a ``...store`` object.
_STORE_WRITE_METHODS = {"put", "delete", "txn"}

# Shared-snapshot sources (C006).  Cache reads returning one object /
# a list of objects, on a receiver whose last name segment says cache;
# client reads are recognised by ``yield from <recv>.<method>(...)``.
_CACHE_GET_METHODS = {"get"}
_CACHE_LIST_METHODS = {"by_index", "by_namespace", "by_label",
                       "select_labels", "items", "select"}
_CLIENT_GET_METHODS = {"get", "get_pod"}
_CLIENT_LIST_METHODS = {"list", "list_pods"}
_HANDLER_KEYWORDS = ("on_add", "on_update", "on_delete")


def parse_hb_carriers(source):
    """Line numbers carrying a ``# repro: hb-carrier[why]`` marker."""
    carriers = {}
    try:
        comments = [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(
                io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):
        comments = []
    for lineno, text in comments:
        match = _HB_CARRIER_RE.search(text)
        if match:
            carriers[lineno] = match.group(1).strip()
    return carriers


class _ModuleChecker(ast.NodeVisitor):
    """Per-module pass for C003/C004/C005 (project-informed)."""

    def __init__(self, project, module, sim_reachable):
        self.project = project
        self.module = module
        self.sim_reachable = sim_reachable
        self.findings = []
        self.carriers = parse_hb_carriers(module.source)
        self.mutables = self._module_mutables()
        self.handlers = self._informer_handlers()
        self._class_stack = []
        self._func_stack = []   # FunctionInfo stack

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
            resolved = self._resolve(name)
            return resolved in _MUTABLE_CONSTRUCTORS \
                or name in _MUTABLE_CONSTRUCTORS
        return False

    def _resolve(self, name):
        head, _, rest = name.partition(".")
        if head in self.module.name_imports:
            base = self.module.name_imports[head]
            return f"{base}.{rest}" if rest else base
        if head in self.module.module_aliases:
            base = self.module.module_aliases[head]
            return f"{base}.{rest}" if rest else base
        return name

    def _mutable_target(self, name):
        """The module-level mutable ``name`` refers to, or None.

        Skips names shadowed by a local binding in the enclosing
        function and names whose definition is a registered carrier.
        """
        if name not in self.mutables:
            return None
        for info in self._func_stack:
            if name in self._local_bindings(info):
                return None
        if self.mutables[name] in self.carriers:
            return None
        return name

    _BINDINGS_ATTR = "_staticcheck_local_bindings"

    def _local_bindings(self, info):
        """Names bound locally (params and assignments) in ``info``."""
        cached = getattr(info.node, self._BINDINGS_ATTR, None)
        if cached is not None:
            return cached
        bindings = set(info.params)
        hoisted = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Name) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)):
                bindings.add(node.id)
            elif isinstance(node, ast.Global):
                # `global NAME` writes the module binding, not a local.
                hoisted.update(node.names)
        bindings -= hoisted
        setattr(info.node, self._BINDINGS_ATTR, bindings)
        return bindings

    def _in_sim_code(self):
        return bool(self._func_stack) and any(
            info.qualname in self.sim_reachable
            for info in self._func_stack)

    def _check_mutation(self, name_node, how, node):
        if not isinstance(name_node, ast.Name):
            return
        target = self._mutable_target(name_node.id)
        if target is None or not self._in_sim_code():
            return
        self._emit(node, "C003",
                   f"module-level mutable {target!r} (defined at line "
                   f"{self.mutables[target]}) {how} from sim-process "
                   f"code with no registered happens-before carrier; "
                   f"own it per-Simulation, or mark the definition "
                   f"'# repro: hb-carrier[why]' if access is provably "
                   f"kernel-ordered")

    # -- scope bookkeeping ---------------------------------------------

    def visit_ClassDef(self, node):
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _qualname_for(self, node):
        parts = [self.module.name]
        if self._func_stack:
            parts = [self._func_stack[-1].qualname]
        elif self._class_stack:
            parts = [f"{self.module.name}.{self._class_stack[-1]}"]
        return ".".join(parts + [node.name])

    def _visit_func(self, node):
        info = self.project.functions.get(self._qualname_for(node))
        if info is None:
            self.generic_visit(node)
            return
        self._func_stack.append(info)
        self._check_orphan_events(info)
        self._check_snapshot_mutation(info)
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
        resolved = self._resolve(name)
        if resolved in _SIM_EVENT_QUALS:
            return f"{name}(...)"
        return None

    @staticmethod
    def _body_nodes(info):
        """Every node of ``info``'s own body (nested defs, lambdas and
        classes are separate scopes and left out)."""
        body_nodes = []
        stack = list(info.node.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                continue
            body_nodes.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return body_nodes

    def _check_orphan_events(self, info):
        """Flag events created in ``info`` and dropped on every path."""
        body_nodes = self._body_nodes(info)

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

    def _check_snapshot_mutation(self, info):
        """Source-order, intra-procedural taint: names bound from a
        snapshot source stay tainted until rebound from anything else
        (``x = x.copy()``, ``x = x.replace(...)``)."""
        objects = set()     # names holding one shared snapshot
        lists = set()       # names holding a list of them
        if info.name in self.handlers:
            objects.update(p for p in info.params if p != "self")

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
                    f"get/list result) in place; every other holder sees "
                    f"the edit — rebind it first with .replace(...) or "
                    f".copy()")

        nodes = [node for node in self._body_nodes(info)
                 if hasattr(node, "lineno")]
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


class CheckResult(LintResult):
    """C-pack findings bucketed by status (same shape as lint)."""


def _lock_findings(lock_graph):
    """C001/C002 findings from the lock graph, deterministic order."""
    findings = []
    for wait in lock_graph.waits:
        findings.append(Finding(
            wait.path, wait.line, wait.col, "C001",
            f"blocking kernel wait {wait.wait} while holding "
            f"{wait.lock_id!r} (in {wait.caller}); every FIFO waiter "
            f"on the lock stalls for the full wait — release first, "
            f"or suppress if the timed critical section is the model"))
    for component in lock_graph.cycles():
        cycle = " -> ".join(component + [component[0]])
        for edge in lock_graph.cycle_edges(component):
            via = f" via {edge.via}" if edge.via else ""
            findings.append(Finding(
                edge.path, edge.line, edge.col, "C002",
                f"lock-order inversion: {edge.acquired!r} acquired "
                f"while holding {edge.held!r}{via}, closing the cycle "
                f"[{cycle}]; acquire locks in one global order"))
    return findings


def check_paths(paths, allowlist=(), strict=False):
    """Run the C-rule pack over files/trees; returns a CheckResult."""
    project = Project.load(paths)
    sim_reachable = project.sim_reachable()
    lock_graph = LockGraph(project)

    by_path = {}
    for finding in _lock_findings(lock_graph):
        by_path.setdefault(finding.path, []).append(finding)

    result = CheckResult()
    used_allowlist = set()
    for name in sorted(project.modules):
        module = project.modules[name]
        result.files_checked += 1
        checker = _ModuleChecker(project, module, sim_reachable)
        checker.visit(module.tree)
        findings = checker.findings + by_path.get(module.path, [])
        findings.sort(key=lambda f: (f.line, f.col, f.code, f.message))
        suppressions, _errors = parse_suppressions(module.source,
                                                   module.path)
        # Unknown-code suppression errors are the D-linter's to report
        # (it owns the comment syntax); re-reporting them here would
        # double every D000.
        used_suppressions = set()
        for finding in findings:
            codes = suppressions.get(finding.line, ())
            if finding.code in codes:
                finding.status = "suppressed"
                used_suppressions.add((finding.line, finding.code))
                result.suppressed.append(finding)
                continue
            allow = next(
                (entry for entry in allowlist
                 if module.path.endswith(entry[0])
                 and finding.code == entry[1]),
                None)
            if allow is not None:
                finding.status = "allowlisted"
                used_allowlist.add(allow)
                result.allowlisted.append(finding)
                continue
            result.active.append(finding)
        if strict:
            for lineno, codes in sorted(suppressions.items()):
                for code in sorted(codes):
                    if not code.startswith("C"):
                        continue  # D-code staleness belongs to lint
                    if (lineno, code) not in used_suppressions:
                        result.stale.append(Finding(
                            module.path, lineno, 0, "C000",
                            f"stale suppression: no {code} finding on "
                            f"this line (remove the allow comment)"))
    if strict:
        for entry in allowlist:
            if not entry[1].startswith("C"):
                continue
            if entry not in used_allowlist:
                result.stale.append(Finding(
                    entry[0], 0, 0, "C000",
                    f"stale allowlist entry: no {entry[1]} finding "
                    f"matches {entry[0]!r}"))
    result.active.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    result.stale.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return result


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------


def format_json(result):
    """Machine-readable report: findings + summary counters."""
    return json.dumps({
        "findings": [f.to_dict() for f in result.active + result.stale],
        "suppressed": [f.to_dict() for f in result.suppressed],
        "allowlisted": [f.to_dict() for f in result.allowlisted],
        "files_checked": result.files_checked,
        "ok": result.ok,
    }, indent=2, sort_keys=True)


def format_sarif(result):
    """SARIF 2.1.0 report (one run, rule metadata included)."""
    codes = sorted({f.code for f in result.all_findings()} | {
        code for code in RULES if code.startswith("C")})
    rules = []
    for code in codes:
        rule = RULES[code]
        rules.append({
            "id": code,
            "name": rule.title,
            "shortDescription": {"text": rule.title},
            "fullDescription": {"text": rule.rationale},
        })
    results = []
    for finding in result.active + result.stale:
        results.append({
            "ruleId": finding.code,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": finding.col + 1,
                    },
                },
            }],
        })
    return json.dumps({
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro.analysis.staticcheck",
                "informationUri": "https://example.invalid/repro",
                "rules": rules,
            }},
            "results": results,
        }],
    }, indent=2, sort_keys=True)
