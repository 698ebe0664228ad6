"""Project-wide symbol table and call graph (the analyzer's substrate).

:class:`Project` parses every module under the given roots once and
builds the whole-program facts both rule packs need:

- a symbol table of modules, classes, and functions with qualified
  names (``repro.core.syncer.ha.SyncerHA._takeover``), and one import
  resolver per module (:meth:`ModuleInfo.resolve`);
- per-class attribute types inferred from ``self.x = ClassName(...)``
  assignments, so ``self.x.method()`` calls resolve across modules;
- a call graph with one edge per syntactic call site, resolved through
  import aliases, ``self``, local names, and — as a last resort — a
  unique-method-name heuristic (if exactly one project class defines
  ``frobnicate``, an unresolved ``obj.frobnicate()`` links to it);
- generator-function detection and reachability queries ("is this
  function sim-process code?").

The resolution is deliberately class-hierarchy-analysis-lite: precise
where the repo's idioms make precision cheap (``self.`` calls, module
imports, locally-defined helpers), and explicitly unresolved otherwise.
Soundness/precision trade-offs are documented in DESIGN.md §12.1.
"""

import ast
from pathlib import Path


def module_name_for(path):
    """Dotted module name for a source path.

    Paths under a ``src/`` directory map to their import path
    (``src/repro/core/env.py`` -> ``repro.core.env``); anything else
    (tests, fixtures) maps to its stem so fixture corpora still get
    stable, distinct module names.
    """
    parts = list(Path(path).parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    name = ".".join(parts)
    if name.endswith(".py"):
        name = name[:-3]
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name.rsplit("/", 1)[-1]


def _body_has_yield(node):
    """True if the function body itself yields (nested defs excluded)."""
    stack = list(node.body)
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(sub))
    return False


def dotted_name(node):
    """The dotted name of an expression (``a.b.c``), or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class FunctionInfo:
    """One function or method in the project."""

    __slots__ = ("qualname", "module", "class_name", "name", "node",
                 "path", "is_generator", "params")

    def __init__(self, qualname, module, class_name, node, path):
        self.qualname = qualname
        self.module = module
        self.class_name = class_name
        self.name = node.name
        self.node = node
        self.path = path
        self.is_generator = _body_has_yield(node)
        args = node.args
        self.params = tuple(
            a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs))

    def __repr__(self):
        return f"<FunctionInfo {self.qualname}>"


class ClassInfo:
    """One class: methods, base names, and inferred attribute types."""

    __slots__ = ("qualname", "module", "name", "node", "bases", "methods",
                 "attr_types")

    def __init__(self, qualname, module, node):
        self.qualname = qualname
        self.module = module
        self.name = node.name
        self.node = node
        self.bases = tuple(
            base for base in (dotted_name(b) for b in node.bases)
            if base is not None)
        self.methods = {}        # name -> FunctionInfo
        self.attr_types = {}     # "attr" -> class qualname (self.x = C())

    def __repr__(self):
        return f"<ClassInfo {self.qualname}>"


class ModuleInfo:
    """One parsed module: source, tree, imports, top-level symbols."""

    __slots__ = ("name", "path", "source", "tree", "module_aliases",
                 "name_imports", "functions", "classes")

    def __init__(self, name, path, source, tree):
        self.name = name
        self.path = path
        self.source = source
        self.tree = tree
        # alias -> module ("import numpy as np" -> {"np": "numpy"}).
        self.module_aliases = {}
        # bare name -> "module.name" ("from x import y").
        self.name_imports = {}
        self.functions = {}      # top-level name -> FunctionInfo
        self.classes = {}        # top-level name -> ClassInfo

    def resolve(self, name):
        """A dotted name with this module's imports applied and its own
        top-level classes/functions qualified (``np.zeros`` ->
        ``numpy.zeros``, ``Widget`` -> ``pkg.mod.Widget``)."""
        head, _, rest = name.partition(".")
        if head in self.name_imports:
            base = self.name_imports[head]
        elif head in self.module_aliases:
            base = self.module_aliases[head]
        elif head in self.classes or head in self.functions:
            base = f"{self.name}.{head}"
        else:
            return name
        return f"{base}.{rest}" if rest else base


class CallSite:
    """One syntactic call: caller, resolved callee (or None), location."""

    __slots__ = ("caller", "callee", "name", "node", "via_unique")

    def __init__(self, caller, callee, name, node, via_unique=False):
        self.caller = caller          # caller FunctionInfo qualname
        self.callee = callee          # callee qualname or None
        self.name = name              # syntactic name ("self.flush", "put")
        self.node = node
        self.via_unique = via_unique  # resolved by unique-method heuristic

    def __repr__(self):
        return f"<CallSite {self.caller} -> {self.callee or self.name!r}>"


class _SymbolCollector(ast.NodeVisitor):
    """First pass over one module: imports, classes, functions."""

    def __init__(self, project, module):
        self.project = project
        self.module = module
        self._class_stack = []
        self._func_stack = []

    def visit_Import(self, node):
        for alias in node.names:
            self.module.module_aliases[
                alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node):
        if node.module and node.level == 0:
            base = node.module
        elif node.module:
            # Relative import: resolve against this module's package.
            package = self.module.name.rsplit(".", node.level)[0]
            base = f"{package}.{node.module}" if package else node.module
        else:
            base = self.module.name.rsplit(".", node.level)[0]
        for alias in node.names:
            self.module.name_imports[alias.asname or alias.name] = \
                f"{base}.{alias.name}"

    def visit_ClassDef(self, node):
        qualname = f"{self.module.name}.{node.name}"
        info = ClassInfo(qualname, self.module.name, node)
        if not self._class_stack and not self._func_stack:
            self.module.classes[node.name] = info
        self.project.classes[qualname] = info
        self._class_stack.append(info)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node):
        if self._class_stack and not self._func_stack:
            cls = self._class_stack[-1]
            qualname = f"{cls.qualname}.{node.name}"
            info = FunctionInfo(qualname, self.module.name, cls.name,
                                node, self.module.path)
            cls.methods[node.name] = info
            self.project.method_index.setdefault(
                node.name, []).append(qualname)
        else:
            parent = self._func_stack[-1] if self._func_stack else None
            if parent is not None:
                qualname = f"{parent.qualname}.{node.name}"
            else:
                qualname = f"{self.module.name}.{node.name}"
                self.module.functions[node.name] = None  # placeholder
            info = FunctionInfo(
                qualname,
                self.module.name,
                self._class_stack[-1].name if self._class_stack else None,
                node, self.module.path)
            if parent is None and not self._class_stack:
                self.module.functions[node.name] = info
        self.project.functions[qualname] = info
        self._func_stack.append(info)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func


class _CallCollector(ast.NodeVisitor):
    """Second pass: attribute types, call sites, call-graph edges."""

    def __init__(self, project, module):
        self.project = project
        self.module = module
        self._class_stack = []
        self._func_stack = []
        # function qualname -> {local name -> nested FunctionInfo}
        self._local_funcs = {}

    # -- scope bookkeeping --------------------------------------------

    def visit_ClassDef(self, node):
        # Named as the symbol table names it: module-qualified even
        # when nested in a class or function body.
        self._class_stack.append(
            self.project.classes[f"{self.module.name}.{node.name}"])
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node):
        if self._func_stack:
            parent = self._func_stack[-1]
            qualname = f"{parent.qualname}.{node.name}"
            info = self.project.functions.get(qualname)
            if info is not None:
                self._local_funcs.setdefault(
                    parent.qualname, {})[node.name] = info
                # Defining a nested function is treated as a call edge:
                # the parent hands the body to the kernel (spawn) or
                # calls it later; for reachability they are one unit.
                self.project.add_edge(CallSite(
                    parent.qualname, qualname, node.name, node))
        elif self._class_stack:
            qualname = f"{self._class_stack[-1].qualname}.{node.name}"
            info = self.project.functions.get(qualname)
        else:
            qualname = f"{self.module.name}.{node.name}"
            info = self.project.functions.get(qualname)
        if info is None:
            return
        self._func_stack.append(info)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    # -- attribute type inference -------------------------------------

    def visit_Assign(self, node):
        self._infer_attr_types(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self._infer_attr_types([node.target], node.value)
        self.generic_visit(node)

    def _infer_attr_types(self, targets, value):
        if not self._class_stack or not isinstance(value, ast.Call):
            return
        target_cls = self._resolve_class(value.func)
        if target_cls is None:
            return
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                self._class_stack[-1].attr_types[target.attr] = \
                    target_cls.qualname

    def _resolve_class(self, func):
        """The project ClassInfo a constructor call refers to, if any."""
        name = dotted_name(func)
        if name is None:
            return None
        return self.project.classes.get(self.module.resolve(name))

    # -- call resolution ----------------------------------------------

    def _lookup_method(self, cls, method):
        """Resolve ``method`` on ``cls`` or its project-known bases."""
        seen = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method in current.methods:
                return current.methods[method]
            for base in current.bases:
                resolved = self.module.resolve(base)
                base_cls = self.project.classes.get(resolved)
                if base_cls is None:
                    base_cls = self.project.class_by_name(
                        base.rsplit(".", 1)[-1])
                if base_cls is not None:
                    stack.append(base_cls)
        return None

    def resolve_call(self, func_node):
        """(callee qualname or None, syntactic name, via_unique)."""
        caller = self._func_stack[-1] if self._func_stack else None
        name = dotted_name(func_node)
        if name is None:
            return None, "<expr>", False
        parts = name.split(".")
        # Locally-defined nested function.
        if caller is not None and len(parts) == 1:
            local = self._local_funcs.get(caller.qualname, {})
            if parts[0] in local:
                return local[parts[0]].qualname, name, False
        # self.method() / self.attr.method().
        if parts[0] == "self" and self._class_stack:
            cls = self._class_stack[-1]
            if len(parts) == 2:
                method = self._lookup_method(cls, parts[1])
                if method is not None:
                    return method.qualname, name, False
            elif len(parts) == 3 and parts[1] in cls.attr_types:
                attr_cls = self.project.classes.get(
                    cls.attr_types[parts[1]])
                if attr_cls is not None:
                    method = self._lookup_method(attr_cls, parts[2])
                    if method is not None:
                        return method.qualname, name, False
        # Module-level / imported name, possibly a class constructor.
        resolved = self.module.resolve(name)
        target = self.project.functions.get(resolved)
        if target is not None:
            return target.qualname, name, False
        cls = self.project.classes.get(resolved)
        if cls is not None:
            init = cls.methods.get("__init__")
            return (init.qualname if init is not None
                    else cls.qualname), name, False
        # Unique-method-name fallback for unresolved attribute calls.
        if len(parts) > 1:
            candidates = self.project.method_index.get(parts[-1], ())
            if len(candidates) == 1:
                return candidates[0], name, True
        return None, name, False

    def visit_Call(self, node):
        if self._func_stack:
            callee, name, via_unique = self.resolve_call(node.func)
            self.project.add_edge(CallSite(
                self._func_stack[-1].qualname, callee, name, node,
                via_unique=via_unique))
        self.generic_visit(node)


class Project:
    """Whole-program symbol table + call graph over a set of roots."""

    def __init__(self):
        self.modules = {}        # module name -> ModuleInfo
        self.functions = {}      # qualname -> FunctionInfo
        self.classes = {}        # qualname -> ClassInfo
        self.method_index = {}   # method name -> [class-method qualnames]
        self.call_sites = {}     # caller qualname -> [CallSite]
        self._edges = {}         # caller qualname -> set of callee names
        self.unparsed = []       # (path, SyntaxError/ValueError)

    # -- loading -------------------------------------------------------

    @classmethod
    def load(cls, paths):
        project = cls()
        for file_path in cls.iter_py_files(paths):
            try:
                project.add_file(file_path)
            except (SyntaxError, ValueError) as exc:  # bad syntax/encoding
                project.unparsed.append((Path(file_path).as_posix(), exc))
        project.finish()
        return project

    @staticmethod
    def iter_py_files(paths):
        for path in paths:
            path = Path(path)
            if path.is_dir():
                yield from sorted(path.rglob("*.py"))
            else:
                yield path

    def add_file(self, path):
        path = Path(path)
        source = path.read_text()
        rel = path.as_posix()
        tree = ast.parse(source, filename=rel)
        module = ModuleInfo(module_name_for(rel), rel, source, tree)
        self.modules[module.name] = module
        _SymbolCollector(self, module).visit(tree)
        return module

    def finish(self):
        """Resolve call sites (requires every module to be added)."""
        for name in sorted(self.modules):
            module = self.modules[name]
            _CallCollector(self, module).visit(module.tree)

    # -- graph ---------------------------------------------------------

    def add_edge(self, site):
        self.call_sites.setdefault(site.caller, []).append(site)
        if site.callee is not None:
            self._edges.setdefault(site.caller, set()).add(site.callee)

    def callees(self, qualname):
        return self._edges.get(qualname, frozenset())

    def class_by_name(self, name):
        """The unique project class with this bare name, or None."""
        matches = [cls for qual, cls in self.classes.items()
                   if cls.name == name]
        return matches[0] if len(matches) == 1 else None

    def reachable_from(self, seeds):
        """Every function qualname reachable from ``seeds`` (inclusive)."""
        seen = set()
        stack = sorted(seeds)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(sorted(self.callees(current) - seen))
        return seen

    def generator_functions(self):
        """Qualnames of every generator function (sim-process bodies)."""
        return {qualname for qualname, info in self.functions.items()
                if info.is_generator}

    def sim_reachable(self):
        """Functions that are sim-process code or called from it.

        Generator functions are the kernel's process bodies (and its
        in-process waits); anything they can reach executes under the
        simulation's scheduling.  Import-time code (module scope, class
        decorators) is deliberately excluded.
        """
        return self.reachable_from(self.generator_functions())
