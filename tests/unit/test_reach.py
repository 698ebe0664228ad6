"""The reachability audit's classifier and failure rule
(``scripts/reach.py``); no root of the real audit runs here."""

import importlib.util
import os
import textwrap

REACH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                          "scripts", "reach.py")


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", REACH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()

MODULE = textwrap.dedent("""\
    import functools


    @functools.lru_cache()
    @staticmethod
    def decorated():
        return 1


    def outer():
        x = 1

        def inner():
            return x

        return inner


    class Box:
        def method(self):
            return 2
    """)


def _functions(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    return {fn.qualname: fn for fn in reach.functions(str(path))}, path


def test_decorated_def_is_keyed_by_its_first_decorator_line(tmp_path):
    found, path = _functions(tmp_path)
    assert found["decorated"].line == 4
    assert found["decorated"].size == 4
    # The same line the tracer sees as the code object's first line.
    code = compile(MODULE, str(path), "exec")
    firstlines = {const.co_name: const.co_firstlineno
                  for const in code.co_consts if hasattr(const, "co_name")}
    assert firstlines["decorated"] == found["decorated"].line


def test_nested_def_is_subtracted_from_its_parent(tmp_path):
    found, _path = _functions(tmp_path)
    assert found["outer.inner"].size == 2
    assert found["outer"].size == 7 - 2


def test_method_is_named_by_its_class(tmp_path):
    found, _path = _functions(tmp_path)
    assert found["Box.method"].size == 2
    assert "Box" not in found


def test_failed_root_fails_the_audit_and_is_named(capsys, tmp_path,
                                                   monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    roots = [reach.Root("fine", "rc = 0"), reach.Root("boom", "rc = 1")]
    assert reach.main(roots=roots, tier1=reach.Root("tier1", "rc = 0")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reach: root failed: boom" in captured.err
    assert "root failed: fine" not in captured.err
    assert "root failed: tier1" not in captured.err


def test_each_run_reports_its_wall_seconds(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    roots = [reach.Root("fine", "rc = 0")]
    assert reach.main(roots=roots, tier1=reach.Root("tier1", "rc = 0")) == 0
    out = capsys.readouterr().out
    timings = out.split("wall seconds per run, under the hook:\n")[1]
    names = [line.split()[1] for line in timings.splitlines()]
    assert names == ["fine", "tier1"]
