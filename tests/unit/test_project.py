"""Unit tests for the analyzer's loader (repro.analysis.project): module
names, import maps and name resolution.

Projects are built from source text written to temp files, so every
test states its whole program inline.
"""

import textwrap

from repro.analysis.project import Project, module_name_for


def project_from(tmp_path, **modules):
    """Load a Project from ``name="source"`` keyword modules.

    Files land under ``src/pkg/`` so module names resolve to the
    importable ``pkg.<name>`` (module_name_for strips through src/).
    """
    root = tmp_path / "src" / "pkg"
    root.mkdir(parents=True, exist_ok=True)
    for name, source in sorted(modules.items()):
        (root / f"{name}.py").write_text(textwrap.dedent(source))
    return Project.load([tmp_path / "src"])


class TestModuleNames:
    def test_src_relative_path_maps_to_import_path(self):
        assert module_name_for("src/repro/core/env.py") == "repro.core.env"

    def test_package_init_maps_to_package(self):
        assert module_name_for("src/repro/simkernel/__init__.py") == \
            "repro.simkernel"

    def test_non_src_path_keeps_distinct_dotted_name(self):
        assert module_name_for("tests/fixtures/staticcheck/a.py") == \
            "tests.fixtures.staticcheck.a"


class TestImportResolution:
    def test_imported_function_resolves_across_modules(self, tmp_path):
        project = project_from(
            tmp_path,
            util="""
                def shared_helper_xyz():
                    pass
            """,
            main="""
                from pkg.util import shared_helper_xyz
                from . import util as helpers
                import collections.abc
                import itertools as it

                def run():
                    shared_helper_xyz()
            """)
        main = project.modules["pkg.main"]
        assert main.resolve("shared_helper_xyz") == \
            "pkg.util.shared_helper_xyz"
        assert main.resolve("helpers.shared_helper_xyz") == \
            "pkg.util.shared_helper_xyz"
        assert main.resolve("it.count") == "itertools.count"
        assert main.resolve("collections.abc.Mapping") == \
            "collections.abc.Mapping"
        assert main.resolve("unknown.name") == "unknown.name"

    def test_top_level_definitions_qualify_nested_ones_do_not(
            self, tmp_path):
        project = project_from(tmp_path, mod="""
            def helper():
                def inner():
                    pass
                return inner

            class Widget:
                def spin(self):
                    return helper()
        """)
        module = project.modules["pkg.mod"]
        assert module.resolve("helper") == "pkg.mod.helper"
        assert module.resolve("Widget.spin") == "pkg.mod.Widget.spin"
        assert module.resolve("inner") == "inner"
        assert module.resolve("spin") == "spin"

    def test_unparseable_file_is_recorded_not_loaded(self, tmp_path):
        project = project_from(tmp_path, good="x = 1\n", bad="def f(:\n")
        assert sorted(project.modules) == ["pkg.good"]
        assert [path.rsplit("/", 1)[-1]
                for path, _exc in project.unparsed] == ["bad.py"]
