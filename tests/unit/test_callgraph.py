"""Unit tests for the staticcheck substrate: the project-wide symbol
table / call graph (repro.analysis.callgraph).

Projects are built from source text written to temp files, so every
test states its whole program inline.
"""

import textwrap

from repro.analysis.callgraph import Project, module_name_for


def project_from(tmp_path, **modules):
    """Build a Project from ``name="source"`` keyword modules.

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


class TestSymbolTable:
    def test_functions_classes_and_methods_registered(self, tmp_path):
        project = project_from(tmp_path, mod="""
            def helper():
                return 1

            class Widget:
                def spin(self):
                    return helper()
        """)
        module = project.modules["pkg.mod"]
        assert "helper" in module.functions
        assert "Widget" in module.classes
        widget = module.classes["Widget"]
        assert sorted(widget.methods) == ["spin"]

    def test_generator_detection_excludes_nested_defs(self, tmp_path):
        project = project_from(tmp_path, mod="""
            def proc(sim):
                yield sim.timeout(1)

            def outer(sim):
                def inner():
                    yield sim.timeout(1)
                return inner
        """)
        gens = {q.rsplit(".", 1)[-1]
                for q in project.generator_functions()}
        assert "proc" in gens
        assert "inner" in gens
        assert "outer" not in gens

    def test_attr_types_inferred_from_ctor_assignment(self, tmp_path):
        project = project_from(tmp_path, mod="""
            class Engine:
                def start(self):
                    return 1

            class Car:
                def __init__(self):
                    self.engine = Engine()
        """)
        car = next(cls for cls in project.classes.values()
                   if cls.name == "Car")
        assert car.attr_types["engine"].endswith(".Engine")


class TestCallResolution:
    def _edges(self, project, caller_suffix):
        caller = next(q for q in project.functions
                      if q.endswith(caller_suffix))
        return {c.rsplit(".", 1)[-1] for c in project.callees(caller)}

    def test_self_method_call_resolves(self, tmp_path):
        project = project_from(tmp_path, mod="""
            class A:
                def top(self):
                    self.bottom()

                def bottom(self):
                    pass
        """)
        assert "bottom" in self._edges(project, "A.top")

    def test_inherited_method_resolves_through_base(self, tmp_path):
        project = project_from(tmp_path, mod="""
            class Base:
                def shared(self):
                    pass

            class Child(Base):
                def run(self):
                    self.shared()
        """)
        assert "shared" in self._edges(project, "Child.run")

    def test_attr_typed_call_resolves_across_classes(self, tmp_path):
        project = project_from(tmp_path, mod="""
            class Store:
                def put(self):
                    pass

            class Server:
                def __init__(self):
                    self.store = Store()

                def handle(self):
                    self.store.put()
        """)
        assert "put" in self._edges(project, "Server.handle")

    def test_imported_function_resolves_across_modules(self, tmp_path):
        project = project_from(
            tmp_path,
            util="""
                def shared_helper_xyz():
                    pass
            """,
            main="""
                from pkg.util import shared_helper_xyz

                def run():
                    shared_helper_xyz()
            """)
        assert "shared_helper_xyz" in self._edges(project, ".run")

    def test_unique_method_name_fallback_links(self, tmp_path):
        project = project_from(tmp_path, mod="""
            class Only:
                def frobnicate(self):
                    pass

            def use(thing):
                thing.frobnicate()
        """)
        caller = next(q for q in project.functions if q.endswith(".use"))
        sites = project.call_sites[caller]
        site = next(s for s in sites if s.name == "thing.frobnicate")
        assert site.callee.endswith("Only.frobnicate")
        assert site.via_unique

    def test_ambiguous_method_name_stays_unresolved(self, tmp_path):
        project = project_from(tmp_path, mod="""
            class A:
                def poke(self):
                    pass

            class B:
                def poke(self):
                    pass

            def use(thing):
                thing.poke()
        """)
        caller = next(q for q in project.functions if q.endswith(".use"))
        site = next(s for s in project.call_sites[caller]
                    if s.name == "thing.poke")
        assert site.callee is None

    def test_nested_function_definition_is_reachability_edge(
            self, tmp_path):
        project = project_from(tmp_path, mod="""
            def sink():
                pass

            def parent(sim):
                def child():
                    yield sim.timeout(1)
                    sink()
                return child
        """)
        reachable = project.sim_reachable()
        assert any(q.endswith(".sink") for q in reachable)


class TestSimReachability:
    def test_transitive_closure_from_generators(self, tmp_path):
        project = project_from(tmp_path, mod="""
            def leaf():
                pass

            def middle():
                leaf()

            def proc(sim):
                yield sim.timeout(1)
                middle()

            def import_time_only():
                leaf()
        """)
        reachable = {q.rsplit(".", 1)[-1]
                     for q in project.sim_reachable()}
        assert {"proc", "middle", "leaf"} <= reachable
        assert "import_time_only" not in reachable
