"""The analyzer's loader: every file parsed once, with its import map.

:meth:`Project.load` parses each module under the given roots once and
records, per module, its dotted name (:func:`module_name_for`), its
source and tree, and the names its imports and top-level definitions
bind, so a rule can qualify a call target with
:meth:`ModuleInfo.resolve`.  A file that does not parse is recorded in
:attr:`Project.unparsed` and left out.  Every rule is a check over one
:class:`ModuleInfo`; nothing here links modules to each other.
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


class ModuleInfo:
    """One parsed module: source, tree, and the names it binds."""

    __slots__ = ("name", "path", "source", "tree", "module_aliases",
                 "name_imports", "top_level")

    def __init__(self, name, path, source, tree):
        self.name = name
        self.path = path
        self.source = source
        self.tree = tree
        # alias -> module ("import numpy as np" -> {"np": "numpy"}).
        self.module_aliases = {}
        # bare name -> "module.name" ("from x import y").
        self.name_imports = {}
        # classes and functions defined outside any class or function.
        self.top_level = set()
        _ImportScan(self).visit(tree)

    def resolve(self, name):
        """A dotted name with this module's imports applied and its own
        top-level classes/functions qualified (``np.zeros`` ->
        ``numpy.zeros``, ``Widget`` -> ``pkg.mod.Widget``)."""
        head, _, rest = name.partition(".")
        if head in self.name_imports:
            base = self.name_imports[head]
        elif head in self.module_aliases:
            base = self.module_aliases[head]
        elif head in self.top_level:
            base = f"{self.name}.{head}"
        else:
            return name
        return f"{base}.{rest}" if rest else base


class _ImportScan(ast.NodeVisitor):
    """Fills a module's import maps and top-level names, in source
    order (a later import of the same alias wins)."""

    def __init__(self, module):
        self.module = module
        self._depth = 0

    def visit_Import(self, node):
        for alias in node.names:
            if alias.asname:
                self.module.module_aliases[alias.asname] = alias.name
            else:
                # "import a.b" binds "a", the top-level package.
                head = alias.name.split(".")[0]
                self.module.module_aliases[head] = head

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

    def _visit_def(self, node):
        if self._depth == 0:
            self.module.top_level.add(node.name)
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_ClassDef = _visit_def
    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def


class Project:
    """Every parsed module under a set of roots, plus the files that
    did not parse."""

    def __init__(self):
        self.modules = {}        # module name -> ModuleInfo
        self.unparsed = []       # (path, SyntaxError/ValueError)

    @classmethod
    def load(cls, paths):
        project = cls()
        files = []
        for path in map(Path, paths):
            files.extend(sorted(path.rglob("*.py")) if path.is_dir()
                         else [path])
        for path in files:
            rel = path.as_posix()
            try:
                source = path.read_text()
                tree = ast.parse(source, filename=rel)
            except (SyntaxError, ValueError) as exc:  # bad syntax/encoding
                project.unparsed.append((rel, exc))
                continue
            module = ModuleInfo(module_name_for(rel), rel, source, tree)
            project.modules[module.name] = module
        return project
